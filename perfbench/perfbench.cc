/**
 * The repository benchmark: trains one workload on the real FrugalEngine
 * for a fixed time, verifies every engine run against the
 * single-threaded oracle, and prints the end-to-end metrics (untraced)
 * or the per-layer metrics (traced). README.md documents the workloads,
 * the metrics and which layer each one watches.
 *
 *   perfbench --workload NAME --seed N --seconds T --trace 0|1
 *             [--commit SHA] [--spans PATH] [--tamper table|loss]
 *
 * The last line of standard output is one JSON object with exactly the
 * keys correct, attempted, failed and metrics. `--tamper` perturbs every
 * run's result before verification (the negative control of
 * test_perfbench.py); such a run must be reported as failed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "replay.h"
#include "runtime/frugal_engine.h"
#include "runtime/oracle.h"
#include "table/optimizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using frugal::GpuId;
using frugal::Key;
using frugal::Step;

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char *kCompiler = "gcc " __VERSION__;
#else
constexpr const char *kCompiler = "unknown";
#endif

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string commit = "unknown";
    /** Where a traced invocation writes its spans (JSON lines). */
    std::string spans_path;
    /** "", "table" or "loss": the negative control. */
    std::string tamper;
};

bool
ParseOptions(int argc, char **argv, Options *opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opts->workload = value;
            } else if (arg == "--seed") {
                opts->seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opts->seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return false;
                opts->traced = value == "1";
            } else if (arg == "--commit") {
                opts->commit = value;
            } else if (arg == "--spans") {
                opts->spans_path = value;
            } else if (arg == "--tamper") {
                if (value != "table" && value != "loss")
                    return false;
                opts->tamper = value;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return !opts->workload.empty() && opts->seconds > 0.0;
}

double
Ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
Median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile of `sorted` (ascending), p in (0, 100]. */
double
Percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/** Consecutive steps per tail window: ten samples lie beyond its p99. */
constexpr std::size_t kTailWindowSteps = 1000;

/**
 * Median over windows of kTailWindowSteps consecutive steps of each
 * window's p99 (a shorter remainder is dropped; fewer steps than one
 * window give their own p99). A host stall of a few seconds inflates
 * the tail of the windows it hits only, so the median keeps the tail
 * the engine itself produces.
 */
double
WindowedP99(const std::vector<double> &in_order)
{
    std::vector<double> window_p99;
    std::vector<double> window;
    for (std::size_t begin = 0; begin + kTailWindowSteps <= in_order.size();
         begin += kTailWindowSteps) {
        window.assign(in_order.begin() + begin,
                      in_order.begin() + begin + kTailWindowSteps);
        std::sort(window.begin(), window.end());
        window_p99.push_back(Percentile(window, 99));
    }
    if (window_p99.empty()) {
        window = in_order;
        std::sort(window.begin(), window.end());
        return Percentile(window, 99);
    }
    return Median(window_p99);
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
JsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    return out;
}

/** The oracle's result for this invocation's workload, computed once and
 *  compared against every engine run. */
struct Oracle
{
    std::unique_ptr<frugal::HostEmbeddingTable> table;
    std::vector<double> losses;
    std::uint64_t updates_applied = 0;
    double seconds = 0.0;
};

Oracle
ComputeOracle(const Workload &w)
{
    const std::int64_t start = NowNs();
    frugal::EmbeddingTableConfig table_config;
    table_config.key_space = w.config.key_space;
    table_config.dim = w.config.dim;
    table_config.init_seed = w.config.init_seed;
    table_config.init_scale = w.config.init_scale;
    Oracle oracle;
    oracle.table = std::make_unique<frugal::HostEmbeddingTable>(table_config);
    auto optimizer =
        frugal::MakeOptimizer(w.config.optimizer, w.config.learning_rate,
                              w.config.key_space, w.config.dim);
    const Model model = w.make_model();
    oracle.updates_applied = frugal::RunOracle(
        *oracle.table, *optimizer, *w.trace, model.grad_fn, model.step_hook);
    if (model.losses != nullptr)
        oracle.losses = *model.losses;
    oracle.seconds = static_cast<double>(NowNs() - start) / 1e9;
    return oracle;
}

/**
 * Timestamps of one engine run, allocated before it starts so recording
 * never allocates. Each slot has one writer: `boundary` the barrier
 * completion (which runs one step at a time), row g of the model arrays
 * trainer g.
 */
struct RunClock
{
    RunClock(std::size_t steps, std::uint32_t gpus)
        : boundary(steps, 0),
          model_start(gpus, std::vector<std::int64_t>(steps, 0)),
          model_end(gpus, std::vector<std::int64_t>(steps, 0))
    {
    }

    std::vector<std::int64_t> boundary;
    std::vector<std::vector<std::int64_t>> model_start;
    std::vector<std::vector<std::int64_t>> model_end;
};

/** JSON-lines span sink; ids are assigned in write order. */
class SpanWriter
{
  public:
    explicit SpanWriter(const std::string &path)
        : out_(std::fopen(path.c_str(), "w"))
    {
    }
    ~SpanWriter()
    {
        if (out_ != nullptr)
            std::fclose(out_);
    }
    SpanWriter(const SpanWriter &) = delete;
    SpanWriter &operator=(const SpanWriter &) = delete;

    bool ok() const { return out_ != nullptr; }

    /** Writes one span (parent 0 = root) and returns its id. */
    std::uint64_t
    Write(const char *name, std::uint64_t parent, const std::string &thread,
          std::int64_t start_ns, std::int64_t end_ns)
    {
        const std::uint64_t id = next_id_++;
        std::fprintf(out_,
                     "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                     "\"thread\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld}\n",
                     static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(parent), name,
                     thread.c_str(), static_cast<long long>(start_ns),
                     static_cast<long long>(end_ns));
        return id;
    }

    void WriteLine(const std::string &line)
    {
        std::fprintf(out_, "%s\n", line.c_str());
    }

  private:
    std::FILE *out_;
    std::uint64_t next_id_ = 1;
};

/** Outcome of one engine run. */
struct RunResult
{
    bool traced = false;
    /** The invocation's first run: verified, but left out of every metric. */
    bool warmup = false;
    std::string failure;  ///< empty when the run verified
    double wall_s = 0.0;  ///< engine construction through Run's return
    double setup_s = 0.0;
    double samples_per_s = 0.0;
    std::vector<double> step_ms;
    std::vector<Metric> layers;  ///< traced runs only
};

/** A trained engine and its outputs, kept until they are verified. */
struct FinishedRun
{
    std::unique_ptr<frugal::FrugalEngine> engine;
    frugal::RunReport report;
    std::vector<double> losses;
};

/**
 * Verifies a finished run against the oracle, after applying the
 * negative control's perturbation when one is requested. Returns "" when
 * the run matches.
 */
std::string
VerifyRun(const Workload &w, const Options &opts, const Oracle &oracle,
          FinishedRun &run)
{
    if (opts.tamper == "table") {
        // Flip the lowest mantissa bit of one trained row element.
        float *row =
            run.engine->table().MutableRow(w.trace->KeysFor(0, 0)[0]);
        std::uint32_t bits = 0;
        std::memcpy(&bits, row, sizeof(bits));
        bits ^= 1u;
        std::memcpy(row, &bits, sizeof(bits));
    }
    std::vector<double> &losses = run.losses;
    if (opts.tamper == "loss" && !losses.empty()) {
        double &entry = losses[losses.size() / 2];
        entry = std::nextafter(entry, std::numeric_limits<double>::max());
    }

    const frugal::RunReport &report = run.report;
    const frugal::HostEmbeddingTable &table = run.engine->table();
    const std::size_t steps = w.trace->NumSteps();
    std::ostringstream why;
    why.precision(17);
    if (report.steps != steps) {
        why << "ran " << report.steps << " of " << steps << " steps";
    } else if (report.updates_applied != oracle.updates_applied) {
        why << "applied " << report.updates_applied << " updates, oracle "
            << oracle.updates_applied;
    } else if (!frugal::TablesBitEqual(table, *oracle.table)) {
        why << "trained table differs from the oracle's (max |diff| "
            << frugal::MaxAbsTableDiff(table, *oracle.table) << ")";
    } else if (losses.size() != oracle.losses.size()) {
        why << "loss history has " << losses.size() << " entries, oracle "
            << oracle.losses.size();
    } else {
        for (std::size_t s = 0; s < losses.size(); ++s) {
            if (std::memcmp(&losses[s], &oracle.losses[s],
                            sizeof(double)) != 0) {
                why << "loss at step " << s << " is " << losses[s]
                    << ", oracle " << oracle.losses[s];
                break;
            }
        }
    }
    return why.str();
}

/** Per-layer numbers of one traced run: span arithmetic plus the
 *  engine's own RunReport counters. */
std::vector<Metric>
LayerMetrics(const RunClock &clock, const frugal::RunReport &report,
             std::uint32_t gpus)
{
    const std::size_t steps = clock.boundary.size();
    double model_ns = 0.0;
    double pre_ns = 0.0;
    double post_ns = 0.0;
    double spans = 0.0;
    for (std::size_t s = 1; s < steps; ++s) {
        for (std::uint32_t g = 0; g < gpus; ++g) {
            model_ns += static_cast<double>(clock.model_end[g][s] -
                                            clock.model_start[g][s]);
            pre_ns += static_cast<double>(clock.model_start[g][s] -
                                          clock.boundary[s - 1]);
            post_ns += static_cast<double>(clock.boundary[s] -
                                           clock.model_end[g][s]);
            spans += 1.0;
        }
    }
    const double window_ns =
        static_cast<double>(clock.boundary.back() - clock.boundary.front());
    const double n_steps = static_cast<double>(report.steps);
    const auto &cache = report.cache;
    const auto &prefetch = report.prefetch;
    return {
        {"models.grad_ms_per_step", Ratio(model_ns, spans) / 1e6, "ms"},
        {"models.busy_share", Ratio(model_ns, gpus * window_ns), "ratio"},
        {"runtime.trainer.pre_model_ms", Ratio(pre_ns, spans) / 1e6, "ms"},
        {"runtime.trainer.post_model_ms", Ratio(post_ns, spans) / 1e6, "ms"},
        {"runtime.gate.wait_share",
         Ratio(report.stall_seconds_total, report.wall_seconds), "ratio"},
        {"runtime.gate.blocked_share",
         Ratio(static_cast<double>(report.gate_waits), n_steps * gpus),
         "ratio"},
        {"runtime.flush.updates_per_claim",
         Ratio(static_cast<double>(report.updates_applied),
               static_cast<double>(report.flush_entry_claims)),
         "ratio"},
        {"runtime.flush.claims_per_step",
         Ratio(static_cast<double>(report.flush_entry_claims), n_steps),
         "count/step"},
        {"runtime.flush.lag_us_p50", report.flush_lag.Percentile(50) * 1e6,
         "us"},
        {"runtime.flush.lag_us_p99", report.flush_lag.Percentile(99) * 1e6,
         "us"},
        {"runtime.prefetch.rows_warmed_per_step",
         Ratio(static_cast<double>(prefetch.rows_warmed), n_steps),
         "count/step"},
        {"runtime.prefetch.warm_hit_share",
         Ratio(static_cast<double>(prefetch.warm_hits),
               static_cast<double>(prefetch.rows_warmed)),
         "ratio"},
        {"runtime.prefetch.late_warms",
         static_cast<double>(prefetch.late_warms), "count"},
        {"cache.hit_ratio", cache.HitRatio(), "ratio"},
        {"cache.hot_hit_share",
         Ratio(static_cast<double>(cache.hot_hits),
               static_cast<double>(cache.hits)),
         "ratio"},
        {"cache.admission_declines_per_step",
         Ratio(static_cast<double>(cache.admission_declines), n_steps),
         "count/step"},
        {"cache.evictions_per_step",
         Ratio(static_cast<double>(cache.evictions), n_steps), "count/step"},
        {"table.host_reads_per_step",
         Ratio(static_cast<double>(report.host_reads), n_steps),
         "count/step"},
    };
}

void
WriteRunSpans(SpanWriter &writer, const RunClock &clock,
              std::int64_t construct_ns, std::int64_t first_model_ns,
              std::int64_t finished_ns)
{
    const std::uint64_t root =
        writer.Write("engine.run", 0, "main", construct_ns, finished_ns);
    writer.Write("setup", root, "main", construct_ns, first_model_ns);
    const std::size_t steps = clock.boundary.size();
    std::vector<std::uint64_t> step_ids(steps);
    for (std::size_t s = 0; s < steps; ++s) {
        step_ids[s] = writer.Write(
            "step", root, "barrier",
            s == 0 ? first_model_ns : clock.boundary[s - 1],
            clock.boundary[s]);
    }
    for (std::size_t g = 0; g < clock.model_start.size(); ++g) {
        const std::string thread = "trainer" + std::to_string(g);
        for (std::size_t s = 0; s < steps; ++s) {
            writer.Write("model", step_ids[s], thread,
                         clock.model_start[g][s], clock.model_end[g][s]);
        }
    }
}

/**
 * One engine run over the whole trace. Setup is timed from the start of
 * engine construction to the first model callback; step boundaries are
 * the StepHook calls (all trainers finished the step). Verification
 * runs after the timed region.
 */
RunResult
RunEngineOnce(const Workload &w, bool traced, SpanWriter *writer,
              FinishedRun *finished)
{
    const std::size_t steps = w.trace->NumSteps();
    const std::uint32_t gpus = w.config.n_gpus;
    const Model model = w.make_model();
    RunClock clock(steps, gpus);

    const frugal::GradFn &inner = model.grad_fn;
    frugal::GradFn grad_fn;
    if (traced) {
        grad_fn = [&](GpuId g, Step s, const std::vector<Key> &keys,
                      const std::vector<float> &values,
                      std::vector<float> *grads) {
            clock.model_start[g][s] = NowNs();
            inner(g, s, keys, values, grads);
            clock.model_end[g][s] = NowNs();
        };
    } else {
        grad_fn = [&](GpuId g, Step s, const std::vector<Key> &keys,
                      const std::vector<float> &values,
                      std::vector<float> *grads) {
            if (s == 0)
                clock.model_start[g][0] = NowNs();
            inner(g, s, keys, values, grads);
        };
    }
    const frugal::StepHook &inner_hook = model.step_hook;
    const frugal::StepHook hook = [&](Step s) {
        clock.boundary[s] = NowNs();
        if (inner_hook)
            inner_hook(s);
    };

    const std::int64_t construct_ns = NowNs();
    auto engine = std::make_unique<frugal::FrugalEngine>(w.config);
    const frugal::RunReport report = engine->Run(*w.trace, grad_fn, hook);
    const std::int64_t finished_ns = NowNs();

    RunResult result;
    result.traced = traced;
    result.wall_s = static_cast<double>(finished_ns - construct_ns) / 1e9;
    std::int64_t first_model_ns = std::numeric_limits<std::int64_t>::max();
    for (std::uint32_t g = 0; g < gpus; ++g)
        first_model_ns = std::min(first_model_ns, clock.model_start[g][0]);
    result.setup_s = static_cast<double>(first_model_ns - construct_ns) / 1e9;
    const double window_s =
        static_cast<double>(clock.boundary.back() - clock.boundary.front()) /
        1e9;
    result.samples_per_s = Ratio(
        static_cast<double>((steps - 1) * w.samples_per_step), window_s);
    for (std::size_t s = 1; s < steps; ++s) {
        result.step_ms.push_back(
            static_cast<double>(clock.boundary[s] - clock.boundary[s - 1]) /
            1e6);
    }

    if (traced) {
        result.layers = LayerMetrics(clock, report, gpus);
        if (writer != nullptr)
            WriteRunSpans(*writer, clock, construct_ns, first_model_ns,
                          finished_ns);
    }
    finished->engine = std::move(engine);
    finished->report = report;
    if (model.losses != nullptr)
        finished->losses = *model.losses;
    return result;
}

/** Median of each layer metric over the traced runs, in first-run order. */
std::vector<Metric>
MedianLayers(const std::vector<RunResult> &runs)
{
    std::vector<Metric> out;
    const RunResult *first = nullptr;
    for (const RunResult &run : runs) {
        if (run.traced) {
            first = &run;
            break;
        }
    }
    if (first == nullptr)
        return out;
    for (std::size_t i = 0; i < first->layers.size(); ++i) {
        std::vector<double> values;
        for (const RunResult &run : runs) {
            if (run.traced)
                values.push_back(run.layers[i].value);
        }
        out.push_back({first->layers[i].name, Median(values),
                       first->layers[i].unit});
    }
    return out;
}

std::vector<double>
SamplesPerSecond(const std::vector<RunResult> &runs, bool traced)
{
    std::vector<double> out;
    for (const RunResult &run : runs) {
        if (run.traced == traced && !run.warmup)
            out.push_back(run.samples_per_s);
    }
    return out;
}

int
Main(int argc, char **argv)
{
    Options opts;
    if (!ParseOptions(argc, argv, &opts)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N --seconds T "
                     "--trace 0|1 [--commit SHA] [--spans PATH] "
                     "[--tamper table|loss]\n");
        return 2;
    }
    Workload workload;
    try {
        workload = MakeWorkload(opts.workload, opts.seed);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    if (opts.tamper == "loss" && workload.make_model().losses == nullptr) {
        std::fprintf(stderr, "perfbench: %s keeps no loss history\n",
                     opts.workload.c_str());
        return 2;
    }
    std::unique_ptr<SpanWriter> writer;
    if (opts.traced && !opts.spans_path.empty()) {
        writer = std::make_unique<SpanWriter>(opts.spans_path);
        if (!writer->ok()) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opts.spans_path.c_str());
            return 2;
        }
    }

    // One untraced warm-up run, then engine runs until they have taken
    // --seconds in total. The warm-up is verified like every run but
    // left out of the metrics: it pays for cold caches and first-touch
    // allocations. A traced invocation alternates untraced and traced
    // runs so the tracing overhead is measured under the same conditions.
    // Peak memory is read after the warm-up, before the oracle and later
    // runs add their allocations and allocator fragmentation: it covers
    // the generated workload plus one engine run.
    std::vector<RunResult> runs;
    std::unique_ptr<Oracle> oracle;
    double peak_rss_mb = 0.0;
    double measured_s = 0.0;
    bool has_traced = false;
    bool has_untraced = false;
    do {
        const bool traced = opts.traced && runs.size() % 2 == 1;
        FinishedRun finished;
        runs.push_back(RunEngineOnce(workload, traced, writer.get(),
                                     &finished));
        if (oracle == nullptr) {
            peak_rss_mb = PeakRssMb();
            oracle = std::make_unique<Oracle>(ComputeOracle(workload));
        }
        RunResult &run = runs.back();
        run.warmup = runs.size() == 1;
        run.failure = VerifyRun(workload, opts, *oracle, finished);
        if (!run.warmup) {
            measured_s += run.wall_s;
            has_traced = has_traced || traced;
            has_untraced = has_untraced || !traced;
        }
        std::printf("run %zu %s setup_s=%.6f samples_per_s=%.1f "
                    "step_ms_p99=%.4f %s\n",
                    runs.size() - 1,
                    run.warmup ? "warmup" : traced ? "traced" : "untraced",
                    run.setup_s, run.samples_per_s, WindowedP99(run.step_ms),
                    run.failure.empty() ? "verified"
                                        : ("FAILED: " + run.failure).c_str());
    } while (measured_s < opts.seconds ||
             (opts.traced && !(has_traced && has_untraced)));
    const std::size_t steps = workload.trace->NumSteps();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const RunResult &run : runs) {
        attempted += steps;
        if (!run.failure.empty()) {
            failed += steps;
            std::fprintf(stderr, "FAIL workload=%s seed=%llu: %s\n",
                         opts.workload.c_str(),
                         static_cast<unsigned long long>(opts.seed),
                         run.failure.c_str());
        }
    }

    std::vector<double> setup;
    std::vector<double> step_ms;
    for (const RunResult &run : runs) {
        if (run.traced || run.warmup)
            continue;
        setup.push_back(run.setup_s);
        step_ms.insert(step_ms.end(), run.step_ms.begin(), run.step_ms.end());
    }
    const double step_p99 = WindowedP99(step_ms);
    std::sort(step_ms.begin(), step_ms.end());
    std::vector<Metric> metrics;
    if (!opts.traced) {
        metrics = {
            {"samples_per_s", Median(SamplesPerSecond(runs, false)), "1/s"},
            {"step_ms_p50", Percentile(step_ms, 50), "ms"},
            {"setup_s", Median(setup), "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
        };
    } else {
        metrics = MedianLayers(runs);
        // The step-time tail of this invocation's untraced runs. It is a
        // per-layer number, not an end-to-end one, because on a shared
        // host it follows the host's scheduling more than the engine's.
        metrics.push_back({"runtime.step_ms_p99", step_p99, "ms"});
        SpanBuffer replay_spans(1 << 16);
        const std::int64_t replay_start = NowNs();
        RunReplays(workload, replay_spans, metrics);
        const std::int64_t replay_end = NowNs();
        if (writer != nullptr) {
            const std::uint64_t root = writer->Write(
                "replay", 0, "main", replay_start, replay_end);
            for (const Span &span : replay_spans.spans())
                writer->Write(span.name, root, "main", span.start_ns,
                              span.end_ns);
        }
        metrics.push_back(
            {"trace.overhead_share",
             1.0 - Ratio(Median(SamplesPerSecond(runs, true)),
                         Median(SamplesPerSecond(runs, false))),
             "ratio"});
    }

    // The host and run block: where and how these numbers were measured.
    std::ostringstream host;
    host << "{\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"compiler\": \"" << JsonEscape(kCompiler)
         << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
         << "\", \"commit\": \"" << JsonEscape(opts.commit)
         << "\", \"workload\": \"" << opts.workload
         << "\", \"seed\": " << opts.seed
         << ", \"trace\": " << (opts.traced ? 1 : 0)
         << ", \"trainers\": " << workload.config.n_gpus
         << ", \"flushers\": " << workload.config.flush_threads
         << ", \"steps_per_run\": " << steps
         << ", \"runs\": " << runs.size() << ", \"steps_run\": " << attempted
         << ", \"step_samples\": " << step_ms.size()
         << ", \"oracle_s\": " << oracle->seconds << "}";
    std::printf("host %s\n", host.str().c_str());
    if (writer != nullptr)
        writer->WriteLine("{\"host\": " + host.str() + "}");
    std::printf("fail_share %.6g\n", Ratio(static_cast<double>(failed),
                                           static_cast<double>(attempted)));
    for (const Metric &m : metrics)
        std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::Main(argc, argv);
}
