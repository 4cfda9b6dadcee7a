// Re-encode a model bundle in the format this build writes: loads any
// readable version (pml-mpi-model-v1 included) and writes it back.
//
//   model_reencode IN.json OUT.json
#include <cstdio>
#include <exception>

#include "common/artifact.hpp"
#include "core/framework.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: model_reencode IN.json OUT.json\n");
    return 2;
  }
  try {
    pml::write_artifact(
        argv[2], pml::core::PmlFramework::load_file(argv[1]).to_json(),
        "model");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "model_reencode: %s\n", e.what());
    return 1;
  }
  return 0;
}
