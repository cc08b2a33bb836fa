#include "base/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

namespace sap {

namespace {

/** The optional log-file sink (SAP_LOG_FILE / setLogFile). */
std::mutex g_log_file_mutex;
std::FILE *g_log_file = nullptr;          // guarded by g_log_file_mutex
std::atomic<bool> g_log_file_env_checked{false};

/** Open @p path for append; returns false (stderr-only) on failure. */
bool
openLogFileLocked(const std::string &path)
{
    if (g_log_file) {
        std::fclose(g_log_file);
        g_log_file = nullptr;
    }
    if (path.empty())
        return true;
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        std::fprintf(stderr,
                     "warn: cannot open SAP_LOG_FILE \"%s\"; "
                     "logging to stderr only\n",
                     path.c_str());
        return false;
    }
    g_log_file = f;
    return true;
}

/** First-use resolution of SAP_LOG_FILE (mirrors SAP_LOG). */
void
maybeInitLogFileFromEnv()
{
    if (g_log_file_env_checked.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(g_log_file_mutex);
    if (g_log_file_env_checked.load(std::memory_order_relaxed))
        return;
    if (const char *env = std::getenv("SAP_LOG_FILE"))
        openLogFileLocked(env);
    g_log_file_env_checked.store(true, std::memory_order_release);
}

using SteadyClock = std::chrono::steady_clock;

/** Process start in the monotonic timebase (first-use anchored). */
SteadyClock::time_point
processStart()
{
    static const SteadyClock::time_point start = SteadyClock::now();
    return start;
}

std::atomic<int> g_log_level{-1}; // -1 = not yet initialized

LogLevel
initLogLevelFromEnv()
{
    LogLevel level = LogLevel::Info;
    if (const char *env = std::getenv("SAP_LOG")) {
        if (!parseLogLevel(env, &level)) {
            std::fprintf(stderr,
                         "warn: SAP_LOG=\"%s\" is not a log level "
                         "(error/warn/info/debug); using \"info\"\n",
                         env);
            level = LogLevel::Info;
        }
    }
    return level;
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Error:
        return "error";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Info:
        return "info";
      case LogLevel::Debug:
        return "debug";
    }
    return "?";
}

bool
parseLogLevel(const std::string &name, LogLevel *out)
{
    if (name == "error") {
        *out = LogLevel::Error;
    } else if (name == "warn" || name == "warning") {
        *out = LogLevel::Warn;
    } else if (name == "info") {
        *out = LogLevel::Info;
    } else if (name == "debug") {
        *out = LogLevel::Debug;
    } else {
        return false;
    }
    return true;
}

LogLevel
logLevel()
{
    int raw = g_log_level.load(std::memory_order_relaxed);
    if (raw < 0) {
        // First use: resolve SAP_LOG once. A racing first use computes
        // the same value, so the redundant store is harmless.
        LogLevel level = initLogLevelFromEnv();
        g_log_level.store(static_cast<int>(level),
                          std::memory_order_relaxed);
        return level;
    }
    return static_cast<LogLevel>(raw);
}

void
setLogLevel(LogLevel level)
{
    g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool
setLogFile(const std::string &path)
{
    std::lock_guard<std::mutex> lock(g_log_file_mutex);
    // A programmatic choice wins over (and suppresses) the env var.
    g_log_file_env_checked.store(true, std::memory_order_release);
    return openLogFileLocked(path);
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(logLevel());
}

std::uint32_t
currentThreadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

double
monotonicSeconds()
{
    return std::chrono::duration<double>(SteadyClock::now() -
                                         processStart())
        .count();
}

namespace logging_detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logEnabled(LogLevel::Warn))
        logImpl(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
logImpl(LogLevel level, const std::string &msg)
{
    // Wall clock for "when did this happen", monotonic seconds for
    // lining up with trace/metric timestamps, thread id for sorting
    // out the IO/worker interleaving.
    const auto now = std::chrono::system_clock::now();
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    const auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now.time_since_epoch())
            .count() %
        1000000;
    std::tm tm{};
#if defined(_WIN32)
    gmtime_s(&tm, &secs);
#else
    gmtime_r(&secs, &tm);
#endif
    // Sized for the worst case snprintf can derive from the int
    // field widths, not the 20 bytes a sane date needs — gcc's
    // -Wformat-truncation counts the former.
    char when[80];
    std::snprintf(when, sizeof(when), "%04d-%02d-%02dT%02d:%02d:%02d",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                  tm.tm_hour, tm.tm_min, tm.tm_sec);
    // One fprintf call so concurrent threads never interleave within
    // a line (stderr is unbuffered but fprintf is atomic per call
    // under POSIX).
    std::fprintf(stderr, "%s.%06lldZ %12.6f t%02u %-5s %s\n", when,
                 static_cast<long long>(micros), monotonicSeconds(),
                 currentThreadId(), logLevelName(level), msg.c_str());
    // Tee to the SAP_LOG_FILE sink when configured — again one
    // stdio call per line, under the sink lock, then flushed so a
    // crash loses at most the line being written.
    maybeInitLogFileFromEnv();
    std::lock_guard<std::mutex> lock(g_log_file_mutex);
    if (g_log_file) {
        std::fprintf(g_log_file, "%s.%06lldZ %12.6f t%02u %-5s %s\n",
                     when, static_cast<long long>(micros),
                     monotonicSeconds(), currentThreadId(),
                     logLevelName(level), msg.c_str());
        std::fflush(g_log_file);
    }
}

} // namespace logging_detail
} // namespace sap
