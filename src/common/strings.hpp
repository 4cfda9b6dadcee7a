// Small string and unit-formatting helpers used across the libraries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pml {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// "1", "1K", "64K", "1M" — power-of-two byte counts as OMB-style labels.
std::string format_bytes(std::uint64_t bytes);

/// "12.3 us", "4.56 ms", "7.89 s" — human-readable durations from seconds.
std::string format_time(double seconds);

/// Fixed-precision double, e.g. format_double(3.14159, 2) == "3.14".
std::string format_double(double value, int precision);

/// Standard base64 (RFC 4648 alphabet, '=' padding) of a byte string.
std::string base64_encode(std::string_view bytes);

/// Strict inverse of base64_encode: returns false (leaving `out`
/// unspecified) on a length that is not a multiple of 4, a byte outside
/// the alphabet, misplaced padding, or non-zero padding bits.
bool base64_decode(std::string_view text, std::string& out);

/// Read an entire file into a string; throws pml::Error on failure.
std::string read_file(const std::string& path);

/// Write a string to a file (overwrite); throws pml::Error on failure.
void write_file(const std::string& path, std::string_view contents);

/// Atomically replace `path` with `contents`: write to `path + ".tmp"`,
/// fsync, then rename over the target so readers never observe a torn
/// file. Throws pml::IoError on failure (the temp file is cleaned up).
void write_file_atomic(const std::string& path, std::string_view contents);

}  // namespace pml
