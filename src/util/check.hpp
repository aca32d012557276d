// Lightweight contract checking used across the library.
//
// TC_CHECK(cond, msg)  — always-on precondition/invariant check; throws
//                        treecache::CheckFailure on violation so tests can
//                        assert on misuse without aborting the process.
// TC_DCHECK(cond, msg) — debug-only (NDEBUG disables) internal invariant
//                        check for hot paths.
#pragma once

#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace treecache {

/// Exception thrown when a TC_CHECK contract is violated.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
  CheckFailure(const std::string& what, std::string message)
      : std::logic_error(what), message_(std::move(message)) {}

  /// A failed TC_CHECK's own message, without the "check failed: (expr) at
  /// file:line" prefix that what() carries. Empty when the check gave none
  /// and when the failure was thrown with its whole text as what().
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  std::string message_;
};

/// The text a user reads for `e`: a failed check's own message, or what()
/// when there is none.
inline std::string error_message(const std::exception& e) {
  const auto* check = dynamic_cast<const CheckFailure*>(&e);
  return check != nullptr && !check->message().empty() ? check->message()
                                                        : e.what();
}

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str(), msg);
}
}  // namespace detail

}  // namespace treecache

#define TC_CHECK(cond, msg)                                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::treecache::detail::check_failed(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                     \
  } while (false)

#ifdef NDEBUG
#define TC_DCHECK(cond, msg) \
  do {                       \
  } while (false)
#else
#define TC_DCHECK(cond, msg) TC_CHECK(cond, msg)
#endif
