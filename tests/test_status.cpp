// The typed error taxonomy (DESIGN.md §9): codes, names, Status,
// StatusError interop with the legacy untyped Error contract.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/error.hpp"
#include "common/status.hpp"

namespace ganopc {
namespace {

TEST(StatusCodeNames, RoundTripEveryCode) {
  const StatusCode codes[] = {
      StatusCode::kOk,          StatusCode::kInvalidInput,
      StatusCode::kLithoNumeric, StatusCode::kIltStalled,
      StatusCode::kDeadlineExceeded, StatusCode::kIo,
      StatusCode::kCancelled,   StatusCode::kInternal,
  };
  for (const StatusCode code : codes)
    EXPECT_EQ(status_code_from_name(status_code_name(code)), code);
}

TEST(StatusCodeNames, UnknownNameThrows) {
  EXPECT_THROW(status_code_from_name("NotACode"), Error);
}

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s(StatusCode::kIo, "disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIo);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_NE(s.to_string().find("Io"), std::string::npos);
  EXPECT_NE(s.to_string().find("disk on fire"), std::string::npos);
}

TEST(StatusError, IsACatchableGanopcError) {
  // The whole migration hinges on this: every existing
  // EXPECT_THROW(..., Error) site keeps passing when the throw is typed.
  try {
    throw StatusError(StatusCode::kLithoNumeric, "NaN in gradient");
  } catch (const Error& e) {
    const auto* typed = dynamic_cast<const StatusError*>(&e);
    ASSERT_NE(typed, nullptr);
    EXPECT_EQ(typed->code(), StatusCode::kLithoNumeric);
    EXPECT_NE(std::string(e.what()).find("NaN in gradient"), std::string::npos);
  }
}

TEST(StatusError, StatusFromExceptionKeepsTheCode) {
  const StatusError e(StatusCode::kDeadlineExceeded, "too slow");
  const Status s = status_from_exception(e);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.message(), "too slow");
}

TEST(StatusError, UntypedExceptionsMapToInternal) {
  EXPECT_EQ(status_from_exception(Error("plain")).code(), StatusCode::kInternal);
  const std::runtime_error std_e("std");
  EXPECT_EQ(status_from_exception(std_e).code(), StatusCode::kInternal);
}

TEST(TypedCheck, ThrowsWithCodeAndStreamedMessage) {
  try {
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, 1 == 2, "got " << 42);
    FAIL() << "did not throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("got 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace ganopc
