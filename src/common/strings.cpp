#include "common/strings.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"

namespace pml {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= (1ULL << 30) && bytes % (1ULL << 30) == 0) {
    return std::to_string(bytes >> 30) + "G";
  }
  if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0) {
    return std::to_string(bytes >> 20) + "M";
  }
  if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0) {
    return std::to_string(bytes >> 10) + "K";
  }
  return std::to_string(bytes);
}

std::string format_time(double seconds) {
  char buf[48];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", seconds * 1e3);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f h", seconds / 3600.0);
  }
  return buf;
}

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string read_file(const std::string& path) {
  // Opening a directory "succeeds" on Linux and reads silently yield
  // nothing; surface it as the IO failure it is.
  if (std::filesystem::is_directory(path)) {
    throw IoError("cannot read a directory: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open file for reading: " + path);
  // Reserve the file's size (only a hint: pipes and procfs report none),
  // then read large chunks to EOF, so a multi-MB artifact costs no
  // buffer-growth copies.
  std::string out;
  std::error_code size_error;
  const auto size = std::filesystem::file_size(path, size_error);
  if (!size_error) out.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    out.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw IoError("read failed: " + path);
  return out;
}

void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open file for writing: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) throw IoError("write failed: " + path);
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const std::string& what) -> IoError {
    IoError err(what + ": " + tmp + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return err;
  };

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw IoError("cannot open file for writing: " + tmp + ": " +
                  std::strerror(errno));
  }
  const char* data = contents.data();
  std::size_t left = contents.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw fail("write failed");
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  // fsync before rename: without it a crash can publish an empty file
  // under the final name on some filesystems.
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw fail("fsync failed");
  }
  if (::close(fd) != 0) throw fail("close failed");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw fail("rename to " + path + " failed");
  }
}

namespace {

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

}  // namespace

std::string base64_encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  const auto byte = [&](std::size_t k) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[k]));
  };
  for (; i + 3 <= bytes.size(); i += 3) {
    const std::uint32_t v = byte(i) << 16 | byte(i + 1) << 8 | byte(i + 2);
    out += kBase64Alphabet[v >> 18];
    out += kBase64Alphabet[(v >> 12) & 63];
    out += kBase64Alphabet[(v >> 6) & 63];
    out += kBase64Alphabet[v & 63];
  }
  const std::size_t tail = bytes.size() - i;
  if (tail > 0) {
    const std::uint32_t v =
        byte(i) << 16 | (tail == 2 ? byte(i + 1) << 8 : 0);
    out += kBase64Alphabet[v >> 18];
    out += kBase64Alphabet[(v >> 12) & 63];
    out += tail == 2 ? kBase64Alphabet[(v >> 6) & 63] : '=';
    out += '=';
  }
  return out;
}

bool base64_decode(std::string_view text, std::string& out) {
  static const auto table = [] {
    std::array<std::int8_t, 256> t{};
    t.fill(-1);
    for (int k = 0; k < 64; ++k) {
      t[static_cast<unsigned char>(kBase64Alphabet[k])] =
          static_cast<std::int8_t>(k);
    }
    return t;
  }();
  if (text.size() % 4 != 0) return false;
  const std::size_t n = text.size();
  const std::size_t pad =
      n == 0 || text[n - 1] != '=' ? 0 : text[n - 2] == '=' ? 2 : 1;
  out.resize(n / 4 * 3);
  char* dst = out.data();
  for (std::size_t i = 0; i < n; i += 4) {
    // Digits under the final quad's padding decode as zero.
    const auto digit = [&](std::size_t k) -> std::int32_t {
      return k >= n - pad ? 0 : table[static_cast<unsigned char>(text[k])];
    };
    const std::int32_t a = digit(i), b = digit(i + 1), c = digit(i + 2),
                       d = digit(i + 3);
    if ((a | b | c | d) < 0) return false;
    const auto v = static_cast<std::uint32_t>(a << 18 | b << 12 | c << 6 | d);
    *dst++ = static_cast<char>(v >> 16);
    *dst++ = static_cast<char>((v >> 8) & 0xff);
    *dst++ = static_cast<char>(v & 0xff);
  }
  // Canonical encodings leave the bits under the padding zero: the bytes
  // the padding drops must decode as zero.
  for (std::size_t k = 1; k <= pad; ++k) {
    if (out[out.size() - k] != '\0') return false;
  }
  out.resize(out.size() - pad);
  return true;
}

}  // namespace pml
