// Lightweight Status / Result error handling, in the style of Arrow/RocksDB.
// The library does not throw exceptions on expected failure paths; fallible
// operations return Status (or Result<T> when they produce a value).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace pcube {

/// Machine-readable failure category carried by Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kCorruption,
  kIoError,
  kNotSupported,
  kInternal,
  kTimeout,
  kResourceExhausted,
};

/// Returns a human-readable name for a StatusCode ("OK", "Invalid argument"...).
std::string_view StatusCodeToString(StatusCode code);

/// Result of a fallible operation: a code plus an optional message.
///
/// Usage follows the Arrow convention:
///
///   Status s = page_manager.Read(pid, &page);
///   if (!s.ok()) return s;                     // or PCUBE_RETURN_NOT_OK(s)
///
/// The class is [[nodiscard]]: every function returning a Status by value
/// is a build error to call and ignore (-Werror=unused-result). The rare
/// call site where dropping the error is genuinely correct must say so with
/// an explicit `.IgnoreError()`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status (the default).
  Status() = default;

  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  /// The load-shedding status: a limit (queue capacity, tenant quota,
  /// projected wait vs. deadline) rejected the work BEFORE it ran. Distinct
  /// from Timeout, which means the work started and its budget expired.
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsTimeout() const { return code_ == StatusCode::kTimeout; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "OK" or "<code>: <message>".
  std::string ToString() const;

  /// Explicitly discards the status. The one sanctioned way to ignore an
  /// error: it turns an invisible dropped Status into a greppable,
  /// reviewable statement of intent at the call site.
  void IgnoreError() const {}

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

/// A value-or-Status, analogous to arrow::Result.
///
/// Dereferencing a non-OK Result is a programming error and aborts in debug
/// builds (checked via PCUBE_DCHECK). [[nodiscard]] like Status: silently
/// dropping a Result discards both the value and the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}             // NOLINT implicit
  Result(Status status) : status_(std::move(status)) {      // NOLINT implicit
    PCUBE_DCHECK(!status_.ok());
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  T& value() & {
    PCUBE_DCHECK(ok());
    return *value_;
  }
  const T& value() const& {
    PCUBE_DCHECK(ok());
    return *value_;
  }
  T&& value() && {
    PCUBE_DCHECK(ok());
    return *std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  // Two members rather than a std::variant<T, Status>: the status is always
  // constructed (OK when a value is held), so no compiler has to prove which
  // alternative a destructor runs on. GCC 12 could not, and warned
  // -Wmaybe-uninitialized on the Status string of every Result<int>.
  Status status_;
  std::optional<T> value_;
};

}  // namespace pcube

/// Propagates a non-OK Status to the caller.
#define PCUBE_RETURN_NOT_OK(expr)             \
  do {                                        \
    ::pcube::Status _st = (expr);             \
    if (!_st.ok()) return _st;                \
  } while (0)

/// Asserts that an expression returns OK; aborts with the message otherwise.
/// For call sites where failure indicates a bug rather than an input error.
#define PCUBE_CHECK_OK(expr)                                        \
  do {                                                              \
    ::pcube::Status _st = (expr);                                   \
    PCUBE_CHECK(_st.ok()) << "status not OK: " << _st.ToString();   \
  } while (0)
