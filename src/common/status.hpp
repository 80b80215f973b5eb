// Typed error taxonomy for the batch inference stack.
//
// The library's original contract was GANOPC_CHECK-or-UB: precondition
// violations throw an untyped ganopc::Error and everything else is assumed
// well-formed. That is fine for a single interactive run, but a fleet-scale
// batch pipeline needs to tell *what kind* of failure hit each clip — a
// malformed GDS record (skip the clip, keep the batch), a NaN out of the
// litho stack (retry with a perturbed restart), a stalled ILT loop (fall
// back to MB-OPC), a blown deadline (report and move on).
//
// Two pieces:
//   StatusCode / Status  — the taxonomy: a code plus a human-readable message.
//   StatusError          — a ganopc::Error subclass carrying a Status, so the
//                          existing throw-based hot paths can raise *typed*
//                          failures without changing their signatures, and
//                          every existing EXPECT_THROW(..., Error) keeps
//                          passing. BatchRunner catches at the clip boundary
//                          and maps exception -> Status -> manifest row.
#pragma once

#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace ganopc {

enum class StatusCode : int {
  kOk = 0,
  kInvalidInput,       ///< malformed GDS/layout/config/geometry
  kLithoNumeric,       ///< NaN/Inf out of the lithography stack
  kIltStalled,         ///< ILT terminated without an acceptable mask
  kDeadlineExceeded,   ///< wall-clock budget exhausted
  kIo,                 ///< file missing / unreadable / write failure
  kCancelled,          ///< stopped by an external request
  kInternal,           ///< unclassified invariant failure
  kQuarantined,        ///< poison clip: crashed K worker processes in a row
};

/// Stable machine-readable name ("InvalidInput", ...) used in manifests.
const char* status_code_name(StatusCode code);

/// Inverse of status_code_name; throws ganopc::Error on an unknown name.
StatusCode status_code_from_name(const std::string& name);

class Status {
 public:
  Status() = default;  ///< Ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "LithoNumeric: non-finite gradient at iteration 12"
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Exception form of a non-ok Status. Derives from ganopc::Error so callers
/// that only know about the untyped contract still catch it.
class StatusError : public Error {
 public:
  StatusError(StatusCode code, const std::string& message)
      : Error(std::string(status_code_name(code)) + ": " + message), code_(code),
        message_(message) {}

  StatusCode code() const { return code_; }
  Status status() const { return Status(code_, message_); }

 private:
  StatusCode code_;
  std::string message_;
};

/// Map an in-flight exception to a Status: StatusError keeps its code, any
/// other ganopc::Error becomes kInternal, anything else kInternal too.
Status status_from_exception(const std::exception& e);

}  // namespace ganopc

/// Typed precondition check: throws StatusError with the given code.
#define GANOPC_TYPED_CHECK(code, cond, msg)                      \
  do {                                                           \
    if (!(cond)) {                                               \
      std::ostringstream oss_;                                   \
      oss_ << msg;                                               \
      throw ::ganopc::StatusError((code), oss_.str());           \
    }                                                            \
  } while (0)
