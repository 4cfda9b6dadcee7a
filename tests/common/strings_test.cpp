#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/error.hpp"

namespace pml {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n z \r"), "z");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(1), "1");
  EXPECT_EQ(format_bytes(512), "512");
  EXPECT_EQ(format_bytes(1024), "1K");
  EXPECT_EQ(format_bytes(65536), "64K");
  EXPECT_EQ(format_bytes(1048576), "1M");
  EXPECT_EQ(format_bytes(1536), "1536");  // not a clean multiple
  EXPECT_EQ(format_bytes(1ULL << 30), "1G");
}

TEST(Strings, FormatTime) {
  EXPECT_EQ(format_time(2.5e-6), "2.50 us");
  EXPECT_EQ(format_time(3.25e-3), "3.25 ms");
  EXPECT_EQ(format_time(1.5), "1.50 s");
  EXPECT_EQ(format_time(7200.0), "2.00 h");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

TEST(Strings, Base64KnownVectors) {
  // RFC 4648 section 10.
  const char* const vectors[][2] = {
      {"", ""},         {"f", "Zg=="},         {"fo", "Zm8="},
      {"foo", "Zm9v"},  {"foob", "Zm9vYg=="},  {"fooba", "Zm9vYmE="},
      {"foobar", "Zm9vYmFy"},
  };
  for (const auto& [plain, encoded] : vectors) {
    EXPECT_EQ(base64_encode(plain), encoded);
    std::string out;
    ASSERT_TRUE(base64_decode(encoded, out)) << encoded;
    EXPECT_EQ(out, plain);
  }
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  std::string out;
  ASSERT_TRUE(base64_decode(base64_encode(all), out));
  EXPECT_EQ(out, all);
}

TEST(Strings, Base64RejectsMalformedText) {
  std::string out;
  for (const char* bad : {"Zg=", "Zm9", "Zm9v=", "Z===", "====", "Zm=v",
                          "Zm 9v", "Zh==", "Zm9=", "Zm*v"}) {
    EXPECT_FALSE(base64_decode(bad, out)) << bad;
  }
}

TEST(Strings, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pml_strings_test.txt")
          .string();
  write_file(path, "hello\nworld");
  EXPECT_EQ(read_file(path), "hello\nworld");
  std::filesystem::remove(path);
}

TEST(Strings, ReadFileReadsFilesWithoutAKnownSize) {
  // procfs reports size 0 and cannot seek to its end; a pipe has no size
  // at all. Both must still read to EOF.
  EXPECT_NE(read_file("/proc/self/status").find("Name:"), std::string::npos);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(200000, 'p');  // several chunks
  std::thread writer([&] {
    std::size_t done = 0;
    while (done < payload.size()) {
      const ssize_t n = ::write(fds[1], payload.data() + done, payload.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
  });
  const std::string got = read_file("/proc/self/fd/" + std::to_string(fds[0]));
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(got, payload);
}

TEST(Strings, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/path/file.txt"), Error);
}

TEST(Strings, WriteToBadPathThrows) {
  EXPECT_THROW(write_file("/nonexistent/dir/file.txt", "x"), Error);
}

}  // namespace
}  // namespace pml
