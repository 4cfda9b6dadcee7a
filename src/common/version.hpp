// Build identity: the pml release version and the artifact schema
// matrix this build writes and reads.
//
// Ops correlate a *running* daemon with on-disk artifacts audited by
// `pml doctor`: a serve reply and a doctor verdict only compose if both
// sides agree on which schema versions are in play. `pml --version`
// prints the full matrix; the serve protocol carries the release string
// in every ping/stats reply and the matrix in `health` replies.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"

namespace pml {

/// Release version of the pml toolchain, bumped when the artifact
/// schema matrix or the serve protocol changes shape.
inline constexpr const char* kPmlVersion = "0.12.0";

/// One artifact family: the format string this build writes, and every
/// format string it still reads (current plus grandfathered versions).
struct ArtifactFormat {
  const char* kind;                 ///< envelope kind ("model", ...)
  const char* writes;               ///< format emitted by this build
  std::vector<const char*> reads;   ///< formats accepted on load
};

/// The schema matrix, one row per artifact family (envelope included).
const std::vector<ArtifactFormat>& artifact_formats();

/// {"version":"0.12.0","artifacts":{"model":{"writes":...,"reads":[...]},...}}
/// — the machine-readable form carried by serve `health` replies.
Json version_json();

/// Multi-line human text for `pml --version`.
std::string version_text();

}  // namespace pml
