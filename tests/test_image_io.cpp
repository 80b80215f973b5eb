#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>

#include "common/error.hpp"
#include "common/image_io.hpp"
#include "common/status.hpp"

// Small RLIMIT_DATA caps starve the sanitizer allocators, so the rlimit
// check runs in plain builds only (as in test_batch_supervised).
#if defined(__SANITIZE_ADDRESS__)
#define GANOPC_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GANOPC_UNDER_ASAN 1
#endif
#endif
#ifndef GANOPC_UNDER_ASAN
#define GANOPC_UNDER_ASAN 0
#endif

namespace ganopc {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The StatusCode read_pgm(path) throws, or kOk when it returns.
StatusCode read_pgm_code(const std::string& path) {
  try {
    read_pgm(path);
  } catch (const StatusError& e) {
    return e.code();
  }
  return StatusCode::kOk;
}

TEST(ImageIo, PgmRoundTrip) {
  GrayImage img;
  img.width = 7;
  img.height = 5;
  img.pixels.resize(35);
  for (std::size_t i = 0; i < img.pixels.size(); ++i)
    img.pixels[i] = static_cast<std::uint8_t>(i * 7 % 256);
  const auto path = temp_path("ganopc_test.pgm");
  write_pgm(path, img);
  const GrayImage back = read_pgm(path);
  EXPECT_EQ(back.width, img.width);
  EXPECT_EQ(back.height, img.height);
  EXPECT_EQ(back.pixels, img.pixels);
  std::remove(path.c_str());
}

TEST(ImageIo, ToGrayMapsRange) {
  const float data[4] = {0.0f, 0.5f, 1.0f, 2.0f};
  const GrayImage img = to_gray(data, 2, 2, 0.0f, 1.0f);
  EXPECT_EQ(img.pixels[0], 0);
  EXPECT_EQ(img.pixels[1], 128);
  EXPECT_EQ(img.pixels[2], 255);
  EXPECT_EQ(img.pixels[3], 255);  // clamped
}

TEST(ImageIo, ToGrayCustomRange) {
  const float data[2] = {-1.0f, 1.0f};
  const GrayImage img = to_gray(data, 2, 1, -1.0f, 1.0f);
  EXPECT_EQ(img.pixels[0], 0);
  EXPECT_EQ(img.pixels[1], 255);
}

TEST(ImageIo, ReadRejectsMissingFile) {
  EXPECT_EQ(read_pgm_code("/nonexistent/nope.pgm"), StatusCode::kIo);
}

TEST(ImageIo, ReadRejectsShortFileBeforeAllocating) {
  // 22 bytes whose header admits 65536 x 65536 pixels: the reader must see
  // that the file holds 3 of them before it sizes a 4 GiB pixel buffer.
  const auto path = temp_path("ganopc_short.pgm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n65536 65536\n255\nabc";
  }
  ASSERT_EQ(std::filesystem::file_size(path), 22u);
  if (!GANOPC_UNDER_ASAN) {
    // A child capped at 256 MiB of data gets the typed error too, not
    // std::bad_alloc. Exit 0: kInvalidInput; 2: bad_alloc; 3: anything else.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const rlimit cap{256ul << 20, 256ul << 20};
      ::setrlimit(RLIMIT_DATA, &cap);
      int code = 3;
      try {
        code = read_pgm_code(path) == StatusCode::kInvalidInput ? 0 : 3;
      } catch (const std::bad_alloc&) {
        code = 2;
      } catch (...) {
      }
      ::_exit(code);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "2 = std::bad_alloc, 3 = another error";
  }
  EXPECT_EQ(read_pgm_code(path), StatusCode::kInvalidInput);
  // A bad header and a file one pixel short are typed the same way.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "P5\n2 2\n255\nabc";
  }
  EXPECT_EQ(read_pgm_code(path), StatusCode::kInvalidInput);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "P5\n2 x\n255\nabcd";
  }
  EXPECT_EQ(read_pgm_code(path), StatusCode::kInvalidInput);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "P5x 2 2\n255\nabcd";
  }
  EXPECT_EQ(read_pgm_code(path), StatusCode::kInvalidInput);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "P52 2\n255\nabcd";
  }
  EXPECT_EQ(read_pgm_code(path), StatusCode::kInvalidInput);
  std::remove(path.c_str());
}

TEST(ImageIo, WriteRejectsBadSize) {
  GrayImage img;
  img.width = 4;
  img.height = 4;
  img.pixels.resize(3);  // wrong
  EXPECT_THROW(write_pgm(temp_path("bad.pgm"), img), Error);
}

TEST(ImageIo, PpmWrites) {
  RgbImage img;
  img.width = 3;
  img.height = 2;
  img.pixels.resize(18, 0);
  img.set(0, 0, 255, 0, 0);
  img.set(1, 2, 0, 255, 0);
  const auto path = temp_path("ganopc_test.ppm");
  write_ppm(path, img);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 18u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ganopc
