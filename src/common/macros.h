#ifndef GAMMA_COMMON_MACROS_H_
#define GAMMA_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace gammadb::internal {

/// Failure path of GAMMA_CHECK_MSG. Taking the message as a string_view
/// accepts string literals, `const char*` and `std::string` alike, so a
/// composed message can never reach a `%s` as the wrong type.
[[noreturn]] inline void CheckMsgFailed(const char* cond, std::string_view msg,
                                        const char* file, int line) {
  std::fprintf(stderr, "GAMMA_CHECK failed: %s (%.*s) at %s:%d\n", cond,
               static_cast<int>(msg.size()), msg.data(), file, line);
  std::abort();
}

}  // namespace gammadb::internal

// Unconditional runtime invariant check. Database invariant violations are
// programming errors; we abort rather than try to limp along with corrupt
// state (the RocksDB/Arrow convention for internal invariants).
#define GAMMA_CHECK(cond)                                                 \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "GAMMA_CHECK failed: %s at %s:%d\n", #cond,    \
                   __FILE__, __LINE__);                                   \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

#define GAMMA_CHECK_MSG(cond, msg)                                        \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::gammadb::internal::CheckMsgFailed(#cond, (msg), __FILE__,         \
                                          __LINE__);                      \
    }                                                                     \
  } while (0)

// Debug-only check; compiled out in release builds.
#ifndef NDEBUG
#define GAMMA_DCHECK(cond) GAMMA_CHECK(cond)
#else
#define GAMMA_DCHECK(cond) \
  do {                     \
  } while (0)
#endif

// Propagate a non-OK Status from an expression returning Status.
#define GAMMA_RETURN_NOT_OK(expr)              \
  do {                                         \
    ::gammadb::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

#endif  // GAMMA_COMMON_MACROS_H_
