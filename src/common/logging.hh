/**
 * @file
 * Minimal gem5-flavoured logging and assertion helpers.
 *
 * fatal()  -- the simulation cannot continue due to a user error
 *             (bad configuration, invalid arguments).
 * panic()  -- something happened that should never happen regardless of
 *             user input, i.e. a simulator bug.
 * warn()   -- functionality works but deserves user attention.
 * inform() -- normal status messages.
 */

#ifndef INPG_COMMON_LOGGING_HH
#define INPG_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace inpg {

/** Verbosity levels for the global logger. */
enum class LogLevel {
    Silent = 0,
    Fatal = 1,
    Warn = 2,
    Inform = 3,
    Debug = 4,
};

/** Process-wide log level; defaults to Warn. */
LogLevel logLevel();

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print an error message and throw FatalError (user error). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print an error message and abort (simulator bug). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Install a hook that panic() invokes (after printing its message,
 * before aborting) so diagnostic state -- e.g. the telemetry flight
 * recorder -- can be dumped on any simulator bug. One hook process-wide;
 * installing is idempotent, nullptr uninstalls. The hook must be safe
 * to call from any thread and must not itself panic.
 */
void setPanicHook(void (*hook)());

/** Print a warning if the log level admits it. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message if the log level admits it. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug message if the log level admits it. */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Exception thrown by fatal() so that tests can catch user errors. */
class FatalError : public std::exception
{
  public:
    explicit FatalError(std::string what) : message(std::move(what)) {}

    const char *what() const noexcept override { return message.c_str(); }

  private:
    std::string message;
};

} // namespace inpg

/**
 * Simulator-bug assertion: active in all build types, unlike assert().
 * Use for invariants whose violation indicates a broken model.
 */
#define INPG_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::inpg::panic("assertion '%s' failed at %s:%d: %s", #cond,      \
                          __FILE__, __LINE__,                               \
                          ::inpg::format(__VA_ARGS__).c_str());             \
        }                                                                   \
    } while (0)

#endif // INPG_COMMON_LOGGING_HH
