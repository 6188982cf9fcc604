#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace inpg {

namespace {

constexpr LogLevel globalLevel = LogLevel::Warn;

void (*panicHook)() = nullptr;

void
emit(const char *tag, const char *fmt, std::va_list ap)
{
    std::string body = vformat(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", tag, body.c_str());
}

} // namespace

LogLevel
logLevel()
{
    return globalLevel;
}

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::string out(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string body = vformat(fmt, ap);
    va_end(ap);
    if (globalLevel >= LogLevel::Fatal)
        std::fprintf(stderr, "fatal: %s\n", body.c_str());
    throw FatalError(body);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string body = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", body.c_str());
    if (panicHook)
        panicHook();
    std::abort();
}

void
setPanicHook(void (*hook)())
{
    panicHook = hook;
}

void
warn(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    emit("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Inform)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    emit("info", fmt, ap);
    va_end(ap);
}

void
debug(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Debug)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    emit("debug", fmt, ap);
    va_end(ap);
}

} // namespace inpg
