#include "common.hh"

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <sys/stat.h>
#include <thread>

#include "core/fleet.hh"
#include "obs/metrics.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace perfbench
{

using namespace vmargin;

double
secondsSince(SteadyClock::time_point begin)
{
    return std::chrono::duration<double>(SteadyClock::now() - begin)
        .count();
}

namespace
{

uint64_t
parseU64(const std::string &text, const std::string &what)
{
    size_t used = 0;
    uint64_t value = 0;
    try {
        value = std::stoull(text, &used, 0);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        util::fatalError(what + ": expected an unsigned integer, got '" +
                         text + "'");
    return value;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            util::fatalError("perfbench_harness: " + arg +
                             " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--workdir") {
            options.workdir = value;
        } else if (arg == "--seconds") {
            options.seconds = util::parseDouble(value, "--seconds");
        } else if (arg == "--trace") {
            options.trace = parseU64(value, "--trace") != 0;
        } else if (arg == "--workers") {
            options.workers =
                static_cast<int>(parseU64(value, "--workers"));
        } else if (arg == "--fleet-chips") {
            options.fleetChips = parseFleetSpec(util::split(value, ','));
        } else if (arg == "--chip") {
            options.chip = parseChipSpec(value);
        } else if (arg == "--run-seed") {
            options.runSeed = parseU64(value, "--run-seed");
        } else if (arg == "--fault-seed") {
            options.faultSeed = parseU64(value, "--fault-seed");
        } else if (arg == "--expect-fleet-hash") {
            options.expectFleetHash = value;
        } else if (arg == "--expect-kernel-hash") {
            options.expectKernelHash = value;
        } else {
            util::fatalError("perfbench_harness: unknown option '" +
                             arg + "'");
        }
    }
    if (options.workload.empty() || options.workdir.empty())
        util::fatalError(
            "perfbench_harness: --workload and --workdir are required");
    if (!(options.seconds > 0.0))
        util::fatalError("perfbench_harness: --seconds must be > 0");
    if (options.workers < 1)
        util::fatalError("perfbench_harness: --workers must be >= 1");
    return options;
}

void
Record::sample(const std::string &name, double value)
{
    samples_[name].push_back(value);
}

void
Record::value(const std::string &name, double value)
{
    values_[name] = value;
}

void
Record::text(const std::string &name, const std::string &value)
{
    texts_[name] = value;
}

bool
Record::check(const std::string &name, bool ok,
              const std::string &detail)
{
    Check &entry = checks_[name];
    if (ok) {
        ++entry.passed;
        return true;
    }
    if (entry.failed++ == 0)
        entry.detail = detail;
    std::cerr << "CHECK FAILED: " << name << ": " << detail << "\n";
    return false;
}

std::string
Record::json() const
{
    std::ostringstream out;
    out << "{\"samples\":{";
    bool first = true;
    for (const auto &[name, values] : samples_) {
        out << (first ? "" : ",") << jsonString(name) << ":[";
        for (size_t i = 0; i < values.size(); ++i)
            out << (i ? "," : "") << jsonNumber(values[i]);
        out << "]";
        first = false;
    }
    out << "},\"values\":{";
    first = true;
    for (const auto &[name, value] : values_) {
        out << (first ? "" : ",") << jsonString(name) << ":"
            << jsonNumber(value);
        first = false;
    }
    out << "},\"texts\":{";
    first = true;
    for (const auto &[name, value] : texts_) {
        out << (first ? "" : ",") << jsonString(name) << ":"
            << jsonString(value);
        first = false;
    }
    out << "},\"checks\":{";
    first = true;
    for (const auto &[name, check] : checks_) {
        out << (first ? "" : ",") << jsonString(name)
            << ":{\"passed\":" << check.passed
            << ",\"failed\":" << check.failed
            << ",\"detail\":" << jsonString(check.detail) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

std::string
hex(uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

void
resetTelemetry()
{
    obs::Registry::global().reset();
}

void
recordTelemetry(Record &record, int executor_workers, int clients)
{
    obs::Registry &reg = obs::Registry::global();
    const double per_client = 1.0 / clients;
    const auto sched = [&](const char *name) {
        return static_cast<double>(
            reg.counter(name, obs::Stability::Sched).value());
    };
    const auto exact = [&](const char *name) {
        return static_cast<double>(reg.counter(name).value());
    };
    const auto sample = [&](const std::string &name, double total) {
        record.sample(name, total * per_client);
    };

    // The fleet executor's execute phase is the merge-barrier wait:
    // every fresh cell is submitted before it starts.
    const double execute_ns =
        static_cast<double>(reg.span("fleet.merge_barrier").totalNs());
    const double idle_ns = sched("threadpool.idle_ns");
    const double fresh = exact("fleet.cells_measured");
    sample("core.executor.execute_ms", execute_ns / 1e6);
    sample("core.executor.merge_ms",
           static_cast<double>(reg.span("fleet.chip_merge").totalNs()) /
               1e6);
    // Worker time not spent idle, over the execute phase; 0 when no
    // cell was run fresh (the pool had nothing to execute).
    record.sample("core.executor.busy_ratio",
                  fresh > 0.0 && execute_ns > 0.0
                      ? 1.0 - idle_ns / (executor_workers * execute_ns)
                      : 0.0);
    sample("core.executor.cells_fresh", fresh);
    sample("core.executor.cache_hits",
           exact("fleet.cells_planned") - fresh);
    sample("util.threadpool.idle_ms", idle_ns / 1e6);
    sample("util.threadpool.steals", sched("threadpool.steals"));
    sample("util.threadpool.tasks", sched("threadpool.tasks"));
    sample("core.ledger.replay_frames", exact("ledger.replay_frames"));
    sample("core.ledger.flush_batches", sched("ledger.flush_batches"));

    const obs::SpanStat &round = reg.span("daemon.round");
    record.sample("sched.daemon.round_us",
                  round.count() ? static_cast<double>(round.totalNs()) /
                                      static_cast<double>(round.count()) /
                                      1e3
                                : 0.0);
    sample("sched.daemon.rounds_replayed",
           exact("daemon.rounds_replayed"));
    sample("sched.daemon.nominal_fallbacks",
           exact("daemon.nominal_fallbacks"));
    sample("sched.supervisor.quarantine_entries",
           exact("supervisor.quarantine_entries"));
    sample("sched.supervisor.backoffs", exact("supervisor.backoffs"));
}

void
runClients(int n, const std::function<void(int)> &fn)
{
    std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c)
        threads.emplace_back([&, c] {
            try {
                fn(c);
            } catch (...) {
                errors[static_cast<size_t>(c)] = std::current_exception();
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
}

uint64_t
fileBytes(const std::string &path)
{
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<uint64_t>(st.st_size);
}

} // namespace perfbench
