// Lightweight Status / Result error-handling vocabulary.
//
// The paper's client API replies with a small closed set of outcomes
// ("ok", "outdated", "failure", plus internal "timeout" / "refuse"
// responses used by the failure detector, Section III.C/III.F). We model
// those directly as a status code rather than exceptions so that the
// simulated data path stays allocation-light.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace sedna {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// Write carried an older timestamp than the stored value (III.F).
  kOutdated,
  /// Generic failure; Sedna starts an async recovery task on this (III.F).
  kFailure,
  /// RPC deadline exceeded; treated as evidence of node failure (III.C).
  kTimeout,
  /// Node explicitly refused (e.g. not the owner of the vnode) (III.E).
  kRefused,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  /// Quorum could not be assembled (fewer than R/W healthy replies).
  kQuorumFailed,
  kOutOfMemory,
  kIoError,
  kCorruption,
  kUnavailable,
  /// Explicit load-shed: the node's admission queue was full, the request
  /// deadline had already expired, or the client's retry budget ran dry.
  /// Retryable — but only against the retry budget, so shed traffic can
  /// never amplify into more offered load than fresh traffic allows.
  kOverloaded,
};

/// Wire range trait (common/codec.h): the last valid status byte.
constexpr StatusCode wire_last(StatusCode) { return StatusCode::kOverloaded; }

[[nodiscard]] constexpr std::string_view to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kOutdated: return "outdated";
    case StatusCode::kFailure: return "failure";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kRefused: return "refused";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kQuorumFailed: return "quorum_failed";
    case StatusCode::kOutOfMemory: return "out_of_memory";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kCorruption: return "corruption";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kOverloaded: return "overloaded";
  }
  return "unknown";
}

/// Value-semantic status: a code plus an optional human-readable detail.
class Status {
 public:
  Status() = default;
  explicit Status(StatusCode code) : code_(code) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status Ok() { return Status{}; }
  [[nodiscard]] static Status Outdated(std::string m = {}) {
    return {StatusCode::kOutdated, std::move(m)};
  }
  [[nodiscard]] static Status Failure(std::string m = {}) {
    return {StatusCode::kFailure, std::move(m)};
  }
  [[nodiscard]] static Status Timeout(std::string m = {}) {
    return {StatusCode::kTimeout, std::move(m)};
  }
  [[nodiscard]] static Status Refused(std::string m = {}) {
    return {StatusCode::kRefused, std::move(m)};
  }
  [[nodiscard]] static Status NotFound(std::string m = {}) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  [[nodiscard]] static Status AlreadyExists(std::string m = {}) {
    return {StatusCode::kAlreadyExists, std::move(m)};
  }
  [[nodiscard]] static Status InvalidArgument(std::string m = {}) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  [[nodiscard]] static Status IoError(std::string m = {}) {
    return {StatusCode::kIoError, std::move(m)};
  }
  [[nodiscard]] static Status Corruption(std::string m = {}) {
    return {StatusCode::kCorruption, std::move(m)};
  }
  [[nodiscard]] static Status Unavailable(std::string m = {}) {
    return {StatusCode::kUnavailable, std::move(m)};
  }
  [[nodiscard]] static Status Overloaded(std::string m = {}) {
    return {StatusCode::kOverloaded, std::move(m)};
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] bool is(StatusCode c) const { return code_ == c; }

  [[nodiscard]] std::string to_string() const {
    std::string out{sedna::to_string(code_)};
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result<T>: either a value or an error Status. Minimal expected<> stand-in.
template <typename T>
class Result {
 public:
  Result(T value) : rep_(std::move(value)) {}                 // NOLINT
  Result(Status status) : rep_(std::move(status)) {}          // NOLINT
  Result(StatusCode code) : rep_(Status{code}) {}             // NOLINT

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(rep_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& { return std::get<T>(rep_); }
  [[nodiscard]] T& value() & { return std::get<T>(rep_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(rep_)); }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

  [[nodiscard]] Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(rep_);
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> rep_;
};

}  // namespace sedna
