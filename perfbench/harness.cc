/**
 * @file
 * The repository benchmark: four closed-loop workloads over the sparse
 * trainer and the accelerator model, each in one process on a
 * ThreadPool of hardware_concurrency threads.
 *
 *   dropback_sparse    Dropback + QE at 5x, conv/fc on kSparse, width 64
 *   dense_sgd_gemm     the same net trained by momentum SGD on kGemm
 *   cosim_replay       replay one measured epoch through both
 *                      accelerator models and the cycle simulator
 *   tenants_prune_ckpt four gradual-pruning tenants under JobScheduler,
 *                      checkpoint -> restore after every round
 *
 * A run first sets the workload up several times (set-up time is the
 * median), then drives it untraced through a fixed amount of work sized
 * from --seconds (workBudget): each step, round or replay starts when
 * the previous one returns. With --trace 1 a second,
 * traced copy then repeats exactly the untraced run's operations through
 * decorators on every layer and the optimizer (tracing.h), must
 * reproduce it bitwise, and yields the per-layer numbers. All timing is
 * taken from outside, around calls into public functions.
 *
 * Usage (normally through run.py, which builds this binary):
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     --out-dir DIR [--revision REV]
 * The last stdout line is the result JSON; DIR receives the details
 * (host/config block, sample counts, per-layer-name rows, checks) and,
 * with --trace 1, a single-step Chrome trace.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "arch/accelerator.h"
#include "arch/workload_trace.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "kernels/sparse_microkernels.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "serve/job_scheduler.h"
#include "serve/stats_writer.h"
#include "serve/training_job.h"
#include "sim/cycle_sim.h"
#include "sparse/dropback.h"
#include "sparse/gradual_pruning.h"
#include "tracing.h"

namespace {

using namespace procrustes;
using perfbench::nowMs;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::SpanLog;
using perfbench::TracedLayer;
using perfbench::TracedOptimizer;
using kernels::KernelBackend;

// ---- workload constants ---------------------------------------------

constexpr int64_t kBatch = 16;
constexpr int kClasses = 10;
constexpr int64_t kImage = 32;
/** 320 training samples: 20 steps per epoch, so the epoch-closing
    validation step is 5% of steps and never sits on the p90 line. */
constexpr int64_t kTrainPerClass = 32;
constexpr int64_t kValPerClass = 16;
/** Dropback decay horizon; regrowth is counted on steps past it. */
constexpr int64_t kHorizonSteps = 20;
/** Quality metrics are read at the close of this epoch (a fixed point
    of the trajectory), so they repeat exactly for one seed however long
    the timed loop runs. */
constexpr int64_t kQualityEpochs = 3;
constexpr int kTenants = 4;
constexpr int kTrainingSetups = 9;
constexpr int kCosimSetups = 3;
constexpr int kMinReplays = 3;
/** The timed loop stops early past this (a failed check), leaving time
    to report. */
constexpr double kMaxLoopSeconds = 75.0;

/**
 * A run does a fixed amount of work sized from --seconds: whole epochs,
 * rounds or replays at a nominal rate per second of the 4-core reference
 * host. Every seed then measures the same schedule; a time-bound loop
 * would let seeds whose steps run faster train longer, into a sparser
 * and faster regime, and spread the figures.
 */
int64_t
workBudget(double seconds, double nominal_s_per_unit, int64_t min_units)
{
    return std::max<int64_t>(
        min_units, std::llround(seconds / nominal_s_per_unit));
}

// ---- small utilities ------------------------------------------------

uint64_t
mix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for an empty set. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Minimal ordered JSON object writer. */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        return raw(k, fmt(v));
    }
    Json &
    integer(const std::string &k, int64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, quote(v));
    }
    Json &
    boolean(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Json &
    raw(const std::string &k, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ") + quote(k) + ": " + json;
        return *this;
    }
    std::string dump() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

std::vector<std::string>
fmtAll(const std::vector<double> &v)
{
    std::vector<std::string> out;
    for (double x : v)
        out.push_back(fmt(x));
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---- metric catalogue (must match BENCHMARK.json) --------------------

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"train_samples_per_s", "samples/s"},
    {"step_ms_p50", "ms"},
    {"step_ms_p90", "ms"},
    {"density_error", "fraction"},
    {"replay_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::string> kLayerNames = {
    "c1", "bn1", "r1", "c2", "bn2", "r2", "p1", "c3",
    "bn3", "r3", "c4", "bn4", "r4", "gap", "fc"};

std::vector<MetricDef>
perLayerDefs()
{
    std::vector<MetricDef> defs = {
        {"val_accuracy", "fraction"},
        {"serve.step_unattributed_ms_p50", "ms"},
        {"serve.step_unattributed_frac", "fraction"},
        {"serve.round_ms_p50", "ms"},
        {"serve.pool_idle_frac", "fraction"},
        {"serve.ckpt_save_ms_p50", "ms"},
        {"serve.ckpt_restore_ms_p50", "ms"},
        {"serve.ckpt_bytes", "bytes"},
        {"nn.conv.fw_ms", "ms"},
        {"nn.conv.bw_ms", "ms"},
        {"nn.fc.fw_ms", "ms"},
        {"nn.fc.bw_ms", "ms"},
        {"nn.bn.fw_ms", "ms"},
        {"nn.bn.bw_ms", "ms"},
        {"nn.relu.fw_ms", "ms"},
        {"nn.relu.bw_ms", "ms"},
        {"nn.pool.fw_ms", "ms"},
        {"nn.pool.bw_ms", "ms"},
        {"nn.elementwise_frac", "fraction"},
        {"nn.optimizer_ms_p50", "ms"},
        {"nn.eval_ms_per_epoch", "ms"},
        {"kernels.conv_macs_per_step", "MAC"},
        {"kernels.conv_gmacs_per_s", "GMAC/s"},
        {"sparse.optimizer_ms_p50", "ms"},
        {"sparse.weight_density", "fraction"},
        {"sparse.tracked_frac", "fraction"},
        {"sparse.regrowth_per_step", "count"},
        {"sparse.mask_stable_step_frac", "fraction"},
        {"arch.evaluate_ms_p50", "ms"},
        {"arch.model_speedup_x", "x"},
        {"arch.model_energy_x", "x"},
        {"sim.plan_ms_p50", "ms"},
        {"sim.clock_ms_p50", "ms"},
        {"sim.mcycles_per_s", "Mcycle/s"},
        {"sim.cycles", "cycles"},
        {"sim.macs_retired", "MAC"},
        {"sim.stall_frac", "fraction"},
        {"sim.analytic_cycle_ratio", "x"},
        {"bench.trace_overhead_frac", "fraction"},
    };
    for (const std::string &l : kLayerNames) {
        defs.push_back({"nn.layer." + l + ".fw_ms", "ms"});
        defs.push_back({"nn.layer." + l + ".bw_ms", "ms"});
    }
    return defs;
}

// ---- run result -----------------------------------------------------

struct Result
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> failures;
    std::map<std::string, double> metrics;   //!< e2e or per-layer
    Json details;

    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed;
        if (failures.size() < 50)
            failures.push_back(what);
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
};

// ---- inputs ---------------------------------------------------------

struct Data
{
    nn::Dataset train;
    nn::Dataset val;
};

/** The class templates define the task, like a fixed dataset's classes;
    the seed draws the samples, the weight init and the shuffle order.
    (Drawing the templates too makes activation sparsity, and with it
    the sparse kernels' work, vary by up to 1.7x between seeds.) */
constexpr uint64_t kTaskSeed = 1;

Data
makeData(uint64_t seed)
{
    nn::BlobImageConfig cfg;
    cfg.numClasses = kClasses;
    cfg.channels = 3;
    cfg.height = kImage;
    cfg.width = kImage;
    cfg.seed = kTaskSeed;
    cfg.samplesPerClass = kTrainPerClass;
    cfg.sampleSeed = mix(seed, 2);
    Data d;
    d.train = nn::makeBlobImages(cfg);
    cfg.samplesPerClass = kValPerClass;
    cfg.sampleSeed = mix(seed, 3);
    d.val = nn::makeBlobImages(cfg);
    return d;
}

// ---- per-job trace state --------------------------------------------

/** What the optimizer probe samples after each traced step. */
struct ProbeSample
{
    int64_t step = 0;
    double density = 1.0;
    double tracked = 1.0;
    int64_t regrowth = 0;
    bool maskChanged = false;
    int64_t convMacs = 0;
};

/** One job's spans, decorators and probe samples. */
struct TraceCtx
{
    explicit TraceCtx(int tenant = -1) : log(tenant) {}

    SpanLog log;
    std::vector<TracedLayer *> layers;
    std::vector<ProbeSample> probes;
    std::vector<std::vector<uint8_t>> liveMask;   //!< per prunable param
    nn::Optimizer *inner = nullptr;

    void
    captureMasks(const std::vector<nn::Param *> &params)
    {
        liveMask.clear();
        for (const nn::Param *p : params) {
            if (!p->prunable)
                continue;
            std::vector<uint8_t> m(static_cast<size_t>(p->value.numel()));
            const float *v = p->value.data();
            for (size_t i = 0; i < m.size(); ++i)
                m[i] = v[i] != 0.0f;
            liveMask.push_back(std::move(m));
        }
    }

    void
    probe(const std::vector<nn::Param *> &params)
    {
        ProbeSample s;
        s.step = log.step();
        int64_t live = 0;
        int64_t total = 0;
        size_t pi = 0;
        for (const nn::Param *p : params) {
            if (!p->prunable)
                continue;
            std::vector<uint8_t> &m = liveMask[pi++];
            const float *v = p->value.data();
            for (size_t i = 0; i < m.size(); ++i) {
                const uint8_t now = v[i] != 0.0f;
                live += now;
                if (now != m[i]) {
                    s.maskChanged = true;
                    s.regrowth += now;
                    m[i] = now;
                }
            }
            total += static_cast<int64_t>(m.size());
        }
        s.density = total ? static_cast<double>(live) /
                                static_cast<double>(total)
                          : 1.0;
        s.tracked = s.density;
        if (auto *db = dynamic_cast<sparse::DropbackOptimizer *>(inner))
            s.tracked = db->trackedFraction();
        else if (auto *gp = dynamic_cast<
                     sparse::GradualMagnitudePruningOptimizer *>(inner))
            s.tracked = gp->currentDensity();
        for (TracedLayer *l : layers) {
            if (l->kind() != "conv")
                continue;
            nn::LayerStepReport r;
            if (l->stepReport(&r) && r.hasMacs)
                s.convMacs += r.fwMacs + r.bwDataMacs + r.bwWeightMacs;
        }
        probes.push_back(s);
    }
};

// ---- network and optimizers -----------------------------------------

template <typename L, typename... A>
L *
addLayer(nn::Network &net, TraceCtx *ctx, A &&...args)
{
    if (!ctx)
        return net.add<L>(std::forward<A>(args)...);
    auto inner = std::make_unique<L>(std::forward<A>(args)...);
    L *raw = inner.get();
    const bool first = net.size() == 0;
    ctx->layers.push_back(
        net.add<TracedLayer>(std::move(inner), &ctx->log, first));
    return raw;
}

/** The VGG-like net: (conv-BN-ReLU) x2, maxpool, (conv-BN-ReLU) x2,
    GAP, fc; widths w-w-pool-2w-2w. */
void
buildVgg(nn::Network &net, int64_t width, uint64_t init_seed,
         KernelBackend backend, TraceCtx *ctx)
{
    const int64_t widths[4] = {width, width, 2 * width, 2 * width};
    int64_t in = 3;
    for (int i = 0; i < 4; ++i) {
        const std::string n = std::to_string(i + 1);
        nn::Conv2dConfig c;
        c.inChannels = in;
        c.outChannels = widths[i];
        c.kernel = 3;
        c.pad = 1;
        c.bias = false;
        addLayer<nn::Conv2d>(net, ctx, c, "c" + n)->setBackend(backend);
        addLayer<nn::BatchNorm2d>(net, ctx, widths[i], "bn" + n);
        addLayer<nn::ReLU>(net, ctx, "r" + n);
        if (i == 1)
            addLayer<nn::MaxPool2d>(net, ctx, 2, "p1");
        in = widths[i];
    }
    addLayer<nn::GlobalAvgPool>(net, ctx, "gap");
    addLayer<nn::Linear>(net, ctx, in, kClasses, "fc")
        ->setBackend(backend);
    Xorshift128Plus rng(init_seed);
    nn::kaimingInit(net, rng);
    if (ctx)
        ctx->captureMasks(net.params());
}

enum class OptKind
{
    Dropback,
    MomentumSgd,
    Gradual,
};

std::unique_ptr<nn::Optimizer>
makeOptimizer(OptKind kind, double target, TraceCtx *ctx,
              SpanLog *clock_log)
{
    std::unique_ptr<nn::Optimizer> opt;
    std::string span = "sparse.optimizer";
    switch (kind) {
      case OptKind::Dropback: {
        sparse::DropbackConfig c;
        c.sparsity = target;
        c.initDecay = 0.9f;
        c.decayHorizon = kHorizonSteps;
        c.selection = sparse::SelectionMode::QuantileEstimate;
        opt = std::make_unique<sparse::DropbackOptimizer>(c);
        break;
      }
      case OptKind::MomentumSgd:
        opt = std::make_unique<nn::Sgd>(0.05f, 0.9f);
        span = "nn.optimizer";
        break;
      case OptKind::Gradual: {
        sparse::GradualPruningConfig c;
        c.targetSparsity = target;
        // Halve the survivors every 5 steps, from step 5 on: 5x holds
        // from step 15 and 10x from step 20. A run's steps at density
        // >= 0.5 are then about 6% of a tenant's steps, so its p90 step
        // does not sit on the dense/sparse boundary.
        c.pruneInterval = 5;
        c.pruneFraction = 0.5;
        c.warmupIterations = 0;
        opt = std::make_unique<sparse::GradualMagnitudePruningOptimizer>(
            c);
        break;
      }
    }
    if (ctx) {
        ctx->inner = opt.get();
        TraceCtx *c = ctx;
        return std::make_unique<TracedOptimizer>(
            std::move(opt), &ctx->log, span,
            [c](const std::vector<nn::Param *> &p) { c->probe(p); });
    }
    if (clock_log)
        return std::make_unique<TracedOptimizer>(std::move(opt), clock_log,
                                                 span);
    return opt;
}

struct JobSpec
{
    std::string name;
    int64_t width = 64;
    KernelBackend backend = KernelBackend::kSparse;
    OptKind opt = OptKind::Dropback;
    double target = 5.0;     //!< compression target (density 1/target)
    uint64_t initSeed = 0;
    uint64_t shuffleSeed = 0;
};

/** One job with its stats sink and (traced runs only) trace state. */
struct Job
{
    std::unique_ptr<TraceCtx> ctx;
    std::unique_ptr<SpanLog> clockLog;   //!< optimizer-only step clock
    std::unique_ptr<serve::StatsWriter> stats;
    std::unique_ptr<serve::TrainingJob> job;
    std::string statsPath;
};

Job
makeJob(const JobSpec &spec, const Data &data, bool traced, bool step_clock,
        const std::string &stats_path, int tenant = -1)
{
    Job j;
    if (traced)
        j.ctx = std::make_unique<TraceCtx>(tenant);
    else if (step_clock)
        j.clockLog = std::make_unique<SpanLog>(tenant);
    TraceCtx *ctx = j.ctx.get();
    SpanLog *clock_log = j.clockLog.get();
    serve::JobConfig cfg;
    cfg.name = spec.name;
    cfg.epochs = 1000000;   // the timed loop, not the job, decides length
    cfg.batchSize = kBatch;
    cfg.shuffleSeed = spec.shuffleSeed;
    j.job = std::make_unique<serve::TrainingJob>(
        cfg,
        [&](nn::Network &net) {
            buildVgg(net, spec.width, spec.initSeed, spec.backend, ctx);
        },
        [&]() {
            return makeOptimizer(spec.opt, spec.target, ctx, clock_log);
        },
        &data.train, &data.val);
    j.statsPath = stats_path;
    j.stats = std::make_unique<serve::StatsWriter>(stats_path);
    j.job->setStatsWriter(j.stats.get());
    return j;
}

double
densityAt(const serve::TrainingJob &job, int64_t epoch)
{
    return 1.0 - job.history().at(static_cast<size_t>(epoch)).weightSparsity;
}

double
densityError(double density, double target)
{
    return std::fabs(density - 1.0 / target) * target;
}

/** Checkpoint round trip: restore(blob) then checkpoint() must return
    blob byte for byte. Spans go to `log` when tracing. */
std::vector<uint8_t>
checkpointRoundTrip(serve::TrainingJob &job, Result &res, SpanLog *log,
                    std::vector<double> *save_ms = nullptr,
                    std::vector<double> *restore_ms = nullptr)
{
    double t0 = nowMs();
    std::vector<uint8_t> blob;
    {
        ScopedSpan s(log, "serve.ckpt_save", "serve");
        blob = job.checkpoint();
    }
    const double t1 = nowMs();
    {
        ScopedSpan s(log, "serve.ckpt_restore", "serve");
        job.restore(blob);
    }
    const double t2 = nowMs();
    if (save_ms)
        save_ms->push_back(t1 - t0);
    if (restore_ms)
        restore_ms->push_back(t2 - t1);
    ++res.attempted;
    res.check(job.checkpoint() == blob,
              "checkpoint round trip changed the snapshot of job " +
                  job.config().name);
    return blob;
}

int64_t
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** The end-to-end metrics of an untraced run. `samples_per_s` is
    samples over the summed wall time of the timed operations; `op_ms`
    are the closed-loop operations `replay_ms_p50` takes its median of. */
void
reportEndToEnd(Result &res, double samples_per_s,
               const std::vector<double> &step_ms,
               const std::vector<double> &op_ms, double density_error,
               const std::vector<double> &setup_s)
{
    auto &m = res.metrics;
    m["train_samples_per_s"] = samples_per_s;
    m["step_ms_p50"] = median(step_ms);
    m["step_ms_p90"] = quantile(step_ms, 0.9);
    m["density_error"] = density_error;
    m["replay_ms_p50"] = median(op_ms);
    m["setup_s"] = median(setup_s);
    m["peak_rss_mb"] = static_cast<double>(peakRssKb()) / 1024.0;
}

/** Sample counts behind the step percentiles, for the details. */
void
recordStepCounts(Result &res, size_t n)
{
    const auto beyond_p90 =
        n - static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n)));
    res.details.integer("step_samples", static_cast<int64_t>(n))
        .integer("step_samples_beyond_p90",
                 static_cast<int64_t>(beyond_p90));
}

// ---- per-layer aggregation ------------------------------------------

/** One traced training step's spans, summed by name and by kind. */
struct StepRow
{
    int tenant = -1;
    int64_t step = -1;
    double wallMs = -1.0;            //!< harness step span; -1 if none
    double childMs = 0.0;
    std::map<std::string, double> byName;   //!< "c1.fw" -> ms
    std::map<std::string, double> byKind;   //!< "conv.fw" -> ms
    double evalMs = 0.0;
};

/** Group a log's layer/optimizer spans into steps. Steps driven through
    a "serve.step" span take their wall time and children from it. */
std::vector<StepRow>
stepRows(const SpanLog &log, Result &res)
{
    std::map<int64_t, StepRow> rows;
    const auto &spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.step < 0)
            continue;
        StepRow &r = rows[s.step];
        r.tenant = log.tenant();
        r.step = s.step;
        if (s.name == "serve.step") {
            r.wallMs = s.ms();
            continue;
        }
        if (s.cat == "serve")
            continue;   // checkpoint spans sit between steps
        if (s.parent >= 0 &&
            spans[static_cast<size_t>(s.parent)].name != "serve.step")
            continue;   // only direct children of a step
        r.childMs += s.ms();
        r.byName[s.name] += s.ms();
        const auto dot = s.name.rfind('.');
        const std::string phase =
            dot == std::string::npos ? "" : s.name.substr(dot + 1);
        if (phase == "eval")
            r.evalMs += s.ms();
        else if (s.cat != "opt" && s.cat != "bench")
            r.byKind[s.cat + "." + phase] += s.ms();
        if (s.parent >= 0) {
            const Span &p = spans[static_cast<size_t>(s.parent)];
            res.check(s.startMs >= p.startMs && s.endMs <= p.endMs,
                      "span " + s.name + " escapes its step");
        }
    }
    std::vector<StepRow> out;
    for (auto &kv : rows)
        out.push_back(std::move(kv.second));
    return out;
}

/** Fill the nn.* / kernels.* / serve.step_* / sparse.* metrics from the
    traced steps of one or more jobs. */
void
layerMetrics(const std::vector<const TraceCtx *> &ctxs, int64_t epochs,
             Result &res)
{
    std::vector<StepRow> rows;
    for (const TraceCtx *c : ctxs) {
        auto r = stepRows(c->log, res);
        rows.insert(rows.end(), r.begin(), r.end());
    }
    auto &m = res.metrics;
    std::map<std::string, std::vector<double>> kind_ms;
    std::map<std::string, std::vector<double>> name_ms;
    std::vector<double> unattributed, opt_nn, opt_sparse;
    double wall_sum = 0.0, unattr_sum = 0.0, elementwise_sum = 0.0;
    double eval_sum = 0.0, kernel_wall = 0.0;
    std::map<std::pair<int, int64_t>, double> conv_ms;
    for (const StepRow &r : rows) {
        for (const char *k : {"conv", "fc", "bn", "relu", "pool"}) {
            for (const char *ph : {"fw", "bw"}) {
                const std::string key = std::string(k) + "." + ph;
                const auto it = r.byKind.find(key);
                kind_ms[key].push_back(it == r.byKind.end() ? 0.0
                                                            : it->second);
            }
        }
        for (const std::string &l : kLayerNames) {
            for (const char *ph : {"fw", "bw"}) {
                const auto it = r.byName.find(l + "." + ph);
                if (it != r.byName.end())
                    name_ms[l + "." + ph].push_back(it->second);
            }
        }
        double elementwise = 0.0, kernels = 0.0;
        for (const auto &kv : r.byKind) {
            kernels += kv.second;
            if (kv.first.rfind("bn.", 0) == 0 ||
                kv.first.rfind("relu.", 0) == 0 ||
                kv.first.rfind("pool.", 0) == 0)
                elementwise += kv.second;
        }
        conv_ms[{r.tenant, r.step}] =
            (r.byKind.count("conv.fw") ? r.byKind.at("conv.fw") : 0.0) +
            (r.byKind.count("conv.bw") ? r.byKind.at("conv.bw") : 0.0);
        const auto nn_opt = r.byName.find("nn.optimizer");
        if (nn_opt != r.byName.end())
            opt_nn.push_back(nn_opt->second);
        const auto sp_opt = r.byName.find("sparse.optimizer");
        if (sp_opt != r.byName.end())
            opt_sparse.push_back(sp_opt->second);
        eval_sum += r.evalMs;
        // The elementwise share is taken over the step where the harness
        // times steps, else over the summed layer spans (tenants).
        const double denom = r.wallMs >= 0.0 ? r.wallMs : kernels;
        elementwise_sum += elementwise;
        kernel_wall += denom;
        if (r.wallMs >= 0.0) {
            const double u = r.wallMs - r.childMs;
            // Children are sequential calls inside the step, so the
            // remainder can only be negative through a broken span.
            res.check(u >= -1e-6, "step " + std::to_string(r.step) +
                                      ": child spans exceed step wall");
            unattributed.push_back(u);
            wall_sum += r.wallMs;
            unattr_sum += u;
        }
    }
    for (const auto &kv : kind_ms)
        m["nn." + kv.first + "_ms"] = median(kv.second);
    for (const auto &kv : name_ms)
        m["nn.layer." + kv.first + "_ms"] = median(kv.second);
    m["nn.elementwise_frac"] =
        kernel_wall > 0.0 ? elementwise_sum / kernel_wall : 0.0;
    m["nn.optimizer_ms_p50"] = median(opt_nn);
    m["sparse.optimizer_ms_p50"] = median(opt_sparse);
    m["nn.eval_ms_per_epoch"] =
        epochs > 0 ? eval_sum / static_cast<double>(epochs) : 0.0;
    m["serve.step_unattributed_ms_p50"] = median(unattributed);
    m["serve.step_unattributed_frac"] =
        wall_sum > 0.0 ? unattr_sum / wall_sum : 0.0;

    // Probe samples: MACs, masks, density.
    std::vector<double> macs, gmacs, regrowth;
    int64_t stable = 0, probed = 0;
    for (const TraceCtx *c : ctxs) {
        for (const ProbeSample &p : c->probes) {
            macs.push_back(static_cast<double>(p.convMacs));
            const auto it = conv_ms.find({c->log.tenant(), p.step});
            if (it != conv_ms.end() && it->second > 0.0)
                gmacs.push_back(static_cast<double>(p.convMacs) /
                                (it->second * 1e6));
            if (p.step >= kHorizonSteps)
                regrowth.push_back(static_cast<double>(p.regrowth));
            stable += !p.maskChanged;
            ++probed;
        }
    }
    m["kernels.conv_macs_per_step"] = median(macs);
    m["kernels.conv_gmacs_per_s"] = median(gmacs);
    m["sparse.regrowth_per_step"] =
        regrowth.empty() ? 0.0 : sum(regrowth) /
                                     static_cast<double>(regrowth.size());
    m["sparse.mask_stable_step_frac"] =
        probed ? static_cast<double>(stable) / static_cast<double>(probed)
               : 0.0;

    // Per-layer-name rows for the details file: where the step goes.
    std::vector<std::string> layer_rows;
    for (const std::string &l : kLayerNames) {
        Json row;
        row.str("layer", l);
        for (const char *ph : {"fw", "bw"}) {
            const auto it = name_ms.find(l + "." + ph);
            row.num(std::string(ph) + "_ms_p50",
                    it == name_ms.end() ? 0.0 : median(it->second));
        }
        layer_rows.push_back(row.dump());
    }
    res.details.raw("layer_rows", jsonArray(layer_rows));
    res.details.integer("traced_steps", static_cast<int64_t>(rows.size()));
}

/** Tracked fraction / density at the quality point, from the probes. */
void
sparsityAt(const TraceCtx &ctx, int64_t step, Result &res)
{
    for (const ProbeSample &p : ctx.probes) {
        if (p.step == step) {
            res.metrics["sparse.weight_density"] = p.density;
            res.metrics["sparse.tracked_frac"] = p.tracked;
            return;
        }
    }
}

/** Copy the spans rooted at `roots` (and their descendants) of several
    logs into one vector with re-indexed parents. */
std::vector<Span>
collectSpans(const std::vector<std::pair<const SpanLog *, std::vector<int64_t>>>
                 &roots)
{
    std::vector<Span> out;
    for (const auto &lr : roots) {
        const auto &spans = lr.first->spans();
        std::map<int64_t, int64_t> remap;
        std::set<int64_t> wanted(lr.second.begin(), lr.second.end());
        for (size_t i = 0; i < spans.size(); ++i) {
            const auto id = static_cast<int64_t>(i);
            const bool root = wanted.count(id) > 0;
            const bool child =
                spans[i].parent >= 0 && remap.count(spans[i].parent) > 0;
            if (!root && !child)
                continue;
            Span s = spans[i];
            s.parent = child ? remap[spans[i].parent] : -1;
            remap[id] = static_cast<int64_t>(out.size());
            out.push_back(std::move(s));
        }
    }
    return out;
}

// ---- options and host block -----------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::string revision = "unknown";
};

std::string
outPath(const Options &o, const std::string &what)
{
    return o.outDir + "/" + o.workload + "_s" + std::to_string(o.seed) +
           "_t" + std::to_string(o.trace ? 1 : 0) + "_" + what;
}

std::string
backendRows(nn::Network &net)
{
    std::vector<std::string> rows;
    for (size_t i = 0; i < net.size(); ++i) {
        nn::Layer *l = net.layer(i);
        if (auto *t = dynamic_cast<TracedLayer *>(l))
            l = &t->inner();
        std::string be = "none";
        if (auto *c = dynamic_cast<nn::Conv2d *>(l))
            be = kernels::kernelBackendName(c->backend());
        else if (auto *f = dynamic_cast<nn::Linear *>(l))
            be = kernels::kernelBackendName(f->backend());
        rows.push_back(Json().str("layer", l->name()).str("backend", be)
                           .dump());
    }
    return jsonArray(rows);
}

// ---- single-job training workloads ----------------------------------

JobSpec
singleJobSpec(const std::string &workload, uint64_t seed)
{
    JobSpec s;
    s.name = workload;
    s.width = 64;
    s.target = 5.0;
    s.initSeed = mix(seed, 4);
    s.shuffleSeed = mix(seed, 5);
    if (workload == "dense_sgd_gemm") {
        s.backend = KernelBackend::kGemm;
        s.opt = OptKind::MomentumSgd;
    }
    return s;
}

void
runSingleJob(const Options &o, Result &res)
{
    const JobSpec spec = singleJobSpec(o.workload, o.seed);
    const std::string stats_path = outPath(o, "untraced.jsonl");

    // Set-up: dataset generation, network build, job construction.
    std::unique_ptr<Data> data;
    Job job;
    std::vector<double> setup_s;
    std::vector<uint8_t> first_init;
    for (int k = 0; k < kTrainingSetups; ++k) {
        job.job.reset();   // the job borrows the datasets: drop it first
        job = Job();
        data.reset();
        const double t0 = nowMs();
        data = std::make_unique<Data>(makeData(o.seed));
        job = makeJob(spec, *data, false, false, stats_path);
        setup_s.push_back((nowMs() - t0) / 1e3);
        const auto init = job.job->checkpoint();
        if (k == 0)
            first_init = init;
        res.check(init == first_init, "set-up is not deterministic");
    }
    res.details.raw("backends", backendRows(job.job->network()))
        .raw("setup_s_all", jsonArray(fmtAll(setup_s)));

    // Timed closed loop: each step starts when the previous returns.
    std::vector<double> step_ms;
    const int64_t epochs = workBudget(o.seconds, 4.0, kQualityEpochs);
    const double loop0 = nowMs();
    serve::TrainingJob &tj = *job.job;
    while (tj.epochsCompleted() < epochs) {
        if ((nowMs() - loop0) / 1e3 >= kMaxLoopSeconds)
            break;
        const double t0 = nowMs();
        tj.step();
        step_ms.push_back(nowMs() - t0);
        ++res.attempted;
    }
    res.check(tj.epochsCompleted() == epochs,
              "timed loop hit its time cap");
    const int64_t steps = tj.globalStep();
    const std::vector<double> losses = [&] {
        std::vector<double> l;
        std::istringstream in(readFile(stats_path));
        std::string line;
        while (std::getline(in, line)) {
            const auto p = line.find("\"loss\": ");
            if (line.find("\"kind\": \"step\"") != std::string::npos &&
                p != std::string::npos)
                l.push_back(std::strtod(line.c_str() + p + 8, nullptr));
        }
        return l;
    }();
    res.check(static_cast<int64_t>(losses.size()) == steps,
              "stats stream lost step lines");
    for (double l : losses)
        res.check(std::isfinite(l), "non-finite batch loss");

    std::vector<double> save_ms, restore_ms;
    const std::vector<uint8_t> final_blob =
        checkpointRoundTrip(tj, res, nullptr, &save_ms, &restore_ms);

    const double val_acc =
        tj.history().at(kQualityEpochs - 1).valAccuracy;
    const double density = densityAt(tj, kQualityEpochs - 1);
    recordStepCounts(res, step_ms.size());
    res.details.integer("steps", steps)
        .integer("epochs_closed", tj.epochsCompleted())
        .num("final_density", 1.0 - tj.history().back().weightSparsity)
        .num("final_val_accuracy", tj.history().back().valAccuracy);
    res.details.raw(
        "repeat",
        Json().num("val_accuracy", val_acc).num("density", density).dump());

    res.metrics["val_accuracy"] = val_acc;
    if (!o.trace) {
        // The training set is a whole number of batches.
        reportEndToEnd(res,
                       static_cast<double>(steps * kBatch) /
                           (sum(step_ms) / 1e3),
                       step_ms, step_ms, densityError(density, spec.target),
                       setup_s);
        return;
    }

    // Traced copy: exactly the same steps through the decorators.
    const std::string traced_stats = outPath(o, "traced.jsonl");
    Job traced = makeJob(spec, *data, true, false, traced_stats);
    TraceCtx &ctx = *traced.ctx;
    std::vector<double> traced_ms;
    for (int64_t i = 0; i < steps; ++i) {
        const double t0 = nowMs();
        {
            ScopedSpan s(&ctx.log, "serve.step", "serve");
            traced.job->step();
        }
        traced_ms.push_back(nowMs() - t0);
        ++res.attempted;
    }
    std::vector<double> tsave, trestore;
    const std::vector<uint8_t> traced_blob =
        checkpointRoundTrip(*traced.job, res, &ctx.log, &tsave, &trestore);
    res.check(traced_blob == final_blob,
              "traced run's final state differs from the untraced run");
    res.check(readFile(traced_stats) == readFile(stats_path),
              "traced run's loss sequence differs from the untraced run");

    layerMetrics({&ctx}, traced.job->epochsCompleted(), res);
    sparsityAt(ctx, kQualityEpochs * (data->train.size() / kBatch) - 1,
               res);
    auto &m = res.metrics;
    m["serve.ckpt_save_ms_p50"] = median(tsave);
    m["serve.ckpt_restore_ms_p50"] = median(trestore);
    m["serve.ckpt_bytes"] = static_cast<double>(traced_blob.size());
    m["bench.trace_overhead_frac"] = sum(traced_ms) / sum(step_ms) - 1.0;

    // Single-step export: the last traced step and everything under it.
    int64_t last = -1;
    for (size_t i = 0; i < ctx.log.spans().size(); ++i) {
        if (ctx.log.spans()[i].name == "serve.step")
            last = static_cast<int64_t>(i);
    }
    const std::string chrome = o.outDir + "/trace_" + o.workload + ".json";
    res.check(perfbench::writeChromeTrace(
                  chrome, collectSpans({{&ctx.log, {last}}})),
              "cannot write " + chrome);
    res.details.str("chrome_trace", chrome);
}

// ---- tenants under the fair-share scheduler -------------------------

JobSpec
tenantSpec(int t, uint64_t seed)
{
    JobSpec s;
    s.name = "tenant" + std::to_string(t);
    s.width = 32;
    s.backend = KernelBackend::kSparse;
    s.opt = OptKind::Gradual;
    s.target = t < kTenants / 2 ? 5.0 : 10.0;
    s.initSeed = mix(seed, 10 + static_cast<uint64_t>(t));
    s.shuffleSeed = mix(seed, 20 + static_cast<uint64_t>(t));
    return s;
}

struct Tenants
{
    std::vector<Job> jobs;
    std::unique_ptr<serve::JobScheduler> sched;
};

Tenants
makeTenants(const Options &o, const Data &data, bool traced,
            const std::string &tag)
{
    Tenants ts;
    ts.sched = std::make_unique<serve::JobScheduler>();
    for (int t = 0; t < kTenants; ++t) {
        ts.jobs.push_back(makeJob(
            tenantSpec(t, o.seed), data, traced, !traced,
            outPath(o, tag + "_tenant" + std::to_string(t) + ".jsonl"), t));
    }
    return ts;
}

/** Adds each tenant's TrainingJob to the scheduler (which takes
    ownership); the Job keeps a non-owning view. */
std::vector<serve::TrainingJob *>
submit(Tenants &ts)
{
    std::vector<serve::TrainingJob *> out;
    for (Job &j : ts.jobs)
        out.push_back(ts.sched->addJob(std::move(j.job)));
    return out;
}

/** Per-step latencies of one tenant in one round: gaps between
    successive optimizer-step ends, the first measured from round start. */
void
tenantStepLatencies(const SpanLog &log, size_t from, double round_start,
                    std::vector<double> &out)
{
    double prev = round_start;
    for (size_t i = from; i < log.spans().size(); ++i) {
        const Span &s = log.spans()[i];
        if (s.cat != "opt")
            continue;
        out.push_back(s.endMs - prev);
        prev = s.endMs;
    }
}

void
runTenants(const Options &o, Result &res)
{
    std::unique_ptr<Data> data;
    Tenants ts;
    std::vector<serve::TrainingJob *> jobs;
    std::vector<double> setup_s;
    std::vector<std::vector<uint8_t>> first_init;
    for (int k = 0; k < kTrainingSetups; ++k) {
        ts.sched.reset();   // the jobs borrow the datasets: drop them first
        ts = Tenants();
        data.reset();
        const double t0 = nowMs();
        data = std::make_unique<Data>(makeData(o.seed));
        ts = makeTenants(o, *data, false, "untraced");
        jobs = submit(ts);
        setup_s.push_back((nowMs() - t0) / 1e3);
        for (int t = 0; t < kTenants; ++t) {
            const auto init = jobs[static_cast<size_t>(t)]->checkpoint();
            if (k == 0)
                first_init.push_back(init);
            res.check(init == first_init[static_cast<size_t>(t)],
                      "set-up is not deterministic");
        }
    }
    res.details.raw("backends", backendRows(jobs[0]->network()))
        .raw("setup_s_all", jsonArray(fmtAll(setup_s)));

    const int64_t steps_per_epoch = data->train.size() / kBatch;
    std::vector<double> round_ms, op_ms, step_ms;
    std::vector<std::vector<uint8_t>> blobs(kTenants);
    int64_t rounds = 0;
    const int64_t budget = workBudget(o.seconds, 2.5, kQualityEpochs);
    const double loop0 = nowMs();
    while (rounds < budget) {
        if ((nowMs() - loop0) / 1e3 >= kMaxLoopSeconds)
            break;
        std::vector<size_t> marks;
        for (const Job &j : ts.jobs)
            marks.push_back(j.clockLog->spans().size());
        const double t0 = nowMs();
        const int ran = ts.sched->runRound();
        const double t1 = nowMs();
        for (int t = 0; t < kTenants; ++t) {
            blobs[static_cast<size_t>(t)] = checkpointRoundTrip(
                *jobs[static_cast<size_t>(t)], res, nullptr);
        }
        const double t2 = nowMs();
        ++rounds;
        res.check(ran == kTenants, "a round skipped a tenant");
        round_ms.push_back(t1 - t0);
        op_ms.push_back(t2 - t0);
        for (int t = 0; t < kTenants; ++t) {
            tenantStepLatencies(*ts.jobs[static_cast<size_t>(t)].clockLog,
                                marks[static_cast<size_t>(t)], t0, step_ms);
        }
        res.attempted += kTenants * steps_per_epoch;
        for (serve::TrainingJob *j : jobs) {
            res.check(std::isfinite(j->history().back().trainLoss),
                      "non-finite training loss in " + j->config().name);
        }
    }
    res.check(rounds == budget, "timed loop hit its time cap");

    double acc = 0.0, derr = 0.0;
    std::vector<std::string> per_tenant;
    for (int t = 0; t < kTenants; ++t) {
        const serve::TrainingJob &j = *jobs[static_cast<size_t>(t)];
        const double a = j.history().at(kQualityEpochs - 1).valAccuracy;
        const double d = densityAt(j, kQualityEpochs - 1);
        const double target = tenantSpec(t, o.seed).target;
        acc += a / kTenants;
        derr = std::max(derr, densityError(d, target));
        per_tenant.push_back(Json().str("tenant", j.config().name)
                                 .num("target", target)
                                 .num("val_accuracy", a)
                                 .num("density", d)
                                 .dump());
    }
    const double samples = static_cast<double>(
        rounds * kTenants * data->train.size());
    recordStepCounts(res, step_ms.size());
    res.details.integer("rounds", rounds)
        .raw("tenants", jsonArray(per_tenant))
        .raw("repeat", Json().num("val_accuracy", acc)
                           .num("density_error", derr)
                           .dump());

    res.metrics["val_accuracy"] = acc;
    if (!o.trace) {
        reportEndToEnd(res, samples / (sum(op_ms) / 1e3), step_ms, op_ms,
                       derr, setup_s);
        return;
    }

    // Traced copy of the same rounds.
    Tenants tt = makeTenants(o, *data, true, "traced");
    std::vector<TraceCtx *> ctxs;
    for (Job &j : tt.jobs)
        ctxs.push_back(j.ctx.get());
    std::vector<serve::TrainingJob *> tjobs = submit(tt);
    SpanLog main_log;
    std::vector<double> traced_op, save_ms, restore_ms, ckpt_bytes;
    double busy_sum = 0.0, capacity_sum = 0.0;
    const int threads = ThreadPool::global().numThreads();
    std::vector<std::vector<uint8_t>> traced_blobs(kTenants);
    for (int64_t r = 0; r < rounds; ++r) {
        std::vector<size_t> marks;
        for (const TraceCtx *c : ctxs)
            marks.push_back(c->log.spans().size());
        const double t0 = nowMs();
        double round_wall = 0.0;
        {
            ScopedSpan s(&main_log, "serve.round", "serve");
            tt.sched->runRound();
            round_wall = nowMs() - t0;
        }
        for (int t = 0; t < kTenants; ++t) {
            traced_blobs[static_cast<size_t>(t)] = checkpointRoundTrip(
                *tjobs[static_cast<size_t>(t)], res, &main_log, &save_ms,
                &restore_ms);
            ckpt_bytes.push_back(static_cast<double>(
                traced_blobs[static_cast<size_t>(t)].size()));
        }
        traced_op.push_back(nowMs() - t0);
        res.attempted += kTenants * steps_per_epoch;
        // A tenant is busy from its first to its last span of the round.
        for (int t = 0; t < kTenants; ++t) {
            const auto &sp = ctxs[static_cast<size_t>(t)]->log.spans();
            const size_t from = marks[static_cast<size_t>(t)];
            if (from < sp.size())
                busy_sum += sp.back().endMs - sp[from].startMs;
        }
        capacity_sum += threads * round_wall;
    }
    for (int t = 0; t < kTenants; ++t) {
        const auto tf = static_cast<size_t>(t);
        res.check(traced_blobs[tf] == blobs[tf],
                  "traced tenant " + std::to_string(t) +
                      " final state differs from the untraced run");
        const std::string tag = "_tenant" + std::to_string(t) + ".jsonl";
        res.check(readFile(outPath(o, "traced" + tag)) ==
                      readFile(outPath(o, "untraced" + tag)),
                  "traced tenant " + std::to_string(t) +
                      " loss sequence differs from the untraced run");
    }

    std::vector<const TraceCtx *> cctxs(ctxs.begin(), ctxs.end());
    layerMetrics(cctxs, rounds * kTenants, res);
    // Mean over tenants at the quality point.
    double dens = 0.0, tracked = 0.0;
    for (const TraceCtx *c : ctxs) {
        Result tmp;
        sparsityAt(*c, kQualityEpochs * steps_per_epoch - 1, tmp);
        dens += tmp.metrics["sparse.weight_density"] / kTenants;
        tracked += tmp.metrics["sparse.tracked_frac"] / kTenants;
    }
    auto &m = res.metrics;
    m["sparse.weight_density"] = dens;
    m["sparse.tracked_frac"] = tracked;
    std::vector<double> traced_round;
    for (const Span &s : main_log.spans()) {
        if (s.name == "serve.round")
            traced_round.push_back(s.ms());
    }
    m["serve.round_ms_p50"] = median(traced_round);
    m["serve.pool_idle_frac"] =
        capacity_sum > 0.0 ? 1.0 - busy_sum / capacity_sum : 0.0;
    m["serve.ckpt_save_ms_p50"] = median(save_ms);
    m["serve.ckpt_restore_ms_p50"] = median(restore_ms);
    m["serve.ckpt_bytes"] = median(ckpt_bytes);
    m["bench.trace_overhead_frac"] = sum(traced_op) / sum(op_ms) - 1.0;

    // Single-step export: each tenant's last step of the last round,
    // beside the round span that ran them.
    std::vector<std::pair<const SpanLog *, std::vector<int64_t>>> roots;
    int64_t last_round = -1;
    for (size_t i = 0; i < main_log.spans().size(); ++i) {
        if (main_log.spans()[i].name == "serve.round")
            last_round = static_cast<int64_t>(i);
    }
    roots.push_back({&main_log, {last_round}});
    for (const TraceCtx *c : ctxs) {
        std::vector<int64_t> ids;
        for (size_t i = 0; i < c->log.spans().size(); ++i) {
            if (c->log.spans()[i].step == c->log.step())
                ids.push_back(static_cast<int64_t>(i));
        }
        roots.push_back({&c->log, ids});
    }
    const std::string chrome = o.outDir + "/trace_" + o.workload + ".json";
    res.check(perfbench::writeChromeTrace(chrome, collectSpans(roots)),
              "cannot write " + chrome);
    res.details.str("chrome_trace", chrome);
}

// ---- cosim replay ---------------------------------------------------

/** The trace-recording training run the replays read. */
struct Recording
{
    std::unique_ptr<Data> data;
    Job job;
    std::unique_ptr<arch::WorkloadTrace> trace;
    std::vector<double> stepMs;
};

/** Train the width-32 net with gradual pruning to 5x on kSparse, then
    record one post-warm-up epoch through WorkloadTrace's observer. */
Recording
record(const Options &o, bool traced, const std::string &stats_path)
{
    Recording rec;
    rec.data = std::make_unique<Data>(makeData(o.seed));
    JobSpec spec;
    spec.name = "cosim_recording";
    spec.width = 32;
    spec.backend = KernelBackend::kSparse;
    spec.opt = OptKind::Gradual;
    spec.target = 5.0;
    spec.initSeed = mix(o.seed, 30);
    spec.shuffleSeed = mix(o.seed, 31);
    rec.job = makeJob(spec, *rec.data, traced, false, stats_path);
    rec.trace = std::make_unique<arch::WorkloadTrace>();
    serve::TrainingJob &j = *rec.job.job;
    SpanLog *log = traced ? &rec.job.ctx->log : nullptr;
    const int64_t steps_per_epoch = rec.data->train.size() / kBatch;
    for (int epoch = 0; epoch < 2; ++epoch) {
        // Epoch 0 reaches the target density (step 15); epoch 1, with a
        // settled mask, is the one recorded.
        if (epoch == 1)
            j.setObserver(rec.trace->observer());
        for (int64_t s = 0; s < steps_per_epoch; ++s) {
            const double t0 = nowMs();
            {
                ScopedSpan sp(log, "serve.step", "serve");
                j.step();
            }
            rec.stepMs.push_back(nowMs() - t0);
        }
    }
    return rec;
}

struct ReplayOut
{
    arch::NetworkCost sparse;
    arch::NetworkCost dense;
    sim::TraceSimResult sim;
};

bool
simIdentity(const sim::SimResult &r)
{
    return r.cycles == r.computeCycles + r.drainCycles +
                           r.glbConflictCycles - r.overlappedDrainCycles +
                           r.dramStallCycles;
}

void
checkReplay(const ReplayOut &r, const ReplayOut &first, Result &res)
{
    for (const arch::NetworkCost *c : {&r.sparse, &r.dense}) {
        res.check(std::isfinite(c->totalCycles()) && c->totalCycles() > 0 &&
                      std::isfinite(c->totalEnergyJ()) &&
                      c->totalEnergyJ() > 0,
                  "evaluateTrace returned non-finite or non-positive cost");
    }
    res.check(r.sim.total.cycles > 0, "simulator retired no cycles");
    for (const sim::SimResult *s :
         {&r.sim.total, &r.sim.fw, &r.sim.bw, &r.sim.wu})
        res.check(simIdentity(*s), "sim cycle identity fails");
    res.check(r.sparse.totalCycles() == first.sparse.totalCycles() &&
                  r.sparse.totalEnergyJ() == first.sparse.totalEnergyJ() &&
                  r.dense.totalCycles() == first.dense.totalCycles() &&
                  r.dense.totalEnergyJ() == first.dense.totalEnergyJ() &&
                  r.sim.total.cycles == first.sim.total.cycles &&
                  r.sim.total.macsRetired == first.sim.total.macsRetired,
              "replays of one trace disagree");
}

void
runCosim(const Options &o, Result &res)
{
    const arch::Accelerator procrustes = arch::Accelerator::procrustes();
    const arch::Accelerator dense = arch::Accelerator::denseBaseline();
    const std::string stats_path = outPath(o, "untraced.jsonl");

    Recording rec;
    std::vector<double> setup_s, step_ms;
    std::vector<uint8_t> first_blob;
    for (int k = 0; k < kCosimSetups; ++k) {
        rec.job.job.reset();   // the job borrows the datasets: drop it first
        rec = Recording();
        const double t0 = nowMs();
        rec = record(o, false, stats_path);
        setup_s.push_back((nowMs() - t0) / 1e3);
        step_ms.insert(step_ms.end(), rec.stepMs.begin(), rec.stepMs.end());
        res.attempted += static_cast<int64_t>(rec.stepMs.size());
        const auto blob = rec.job.job->checkpoint();
        if (k == 0)
            first_blob = blob;
        res.check(blob == first_blob, "trace recording is not deterministic");
    }
    res.details.raw("backends", backendRows(rec.job.job->network()))
        .raw("setup_s_all", jsonArray(fmtAll(setup_s)));
    serve::TrainingJob &rj = *rec.job.job;
    res.check(std::isfinite(rj.history().back().trainLoss),
              "non-finite training loss");
    const arch::WorkloadTrace &trace = *rec.trace;
    res.check(trace.epochCount() == 1, "recording did not yield one epoch");

    // Timed loop: replay the recorded epoch through both models.
    std::vector<double> replay_ms;
    ReplayOut first;
    const int64_t budget = workBudget(o.seconds, 2.5, kMinReplays);
    const double loop0 = nowMs();
    while (static_cast<int64_t>(replay_ms.size()) < budget) {
        if ((nowMs() - loop0) / 1e3 >= kMaxLoopSeconds)
            break;
        ReplayOut r;
        const double t0 = nowMs();
        r.sparse = procrustes.evaluateTrace(trace, 0, nullptr, &r.sim,
                                            sim::SimConfig{});
        r.dense = dense.evaluateTrace(trace, 0);
        replay_ms.push_back(nowMs() - t0);
        ++res.attempted;
        if (replay_ms.size() == 1)
            first = r;
        checkReplay(r, first, res);
    }
    res.check(static_cast<int64_t>(replay_ms.size()) == budget,
              "timed loop hit its time cap");

    const double speedup =
        first.dense.totalCycles() / first.sparse.totalCycles();
    const double energy =
        first.dense.totalEnergyJ() / first.sparse.totalEnergyJ();
    const double val_acc = rj.history().back().valAccuracy;
    const double density = densityAt(rj, 1);
    const int64_t pes = procrustes.costModel().config().pes();
    const double stall_frac =
        static_cast<double>(first.sim.total.stallCycles) /
        (static_cast<double>(first.sim.total.cycles) *
         static_cast<double>(pes));
    recordStepCounts(res, step_ms.size());
    res.details.integer("replays", static_cast<int64_t>(replay_ms.size()))
        .raw("repeat",
             Json().num("val_accuracy", val_acc)
                 .num("density", density)
                 .num("model_speedup_x", speedup)
                 .num("model_energy_x", energy)
                 .integer("sim_cycles", first.sim.total.cycles)
                 .integer("sim_macs_retired", first.sim.total.macsRetired)
                 .num("analytic_cycle_ratio", first.sim.analyticCycleRatio)
                 .dump());

    res.metrics["val_accuracy"] = val_acc;
    if (!o.trace) {
        reportEndToEnd(res,
                       static_cast<double>(step_ms.size() * kBatch) /
                           (sum(step_ms) / 1e3),
                       step_ms, replay_ms, densityError(density, 5.0),
                       setup_s);
        return;
    }

    // Traced copy: a traced recording, then the same number of replays
    // split into their analytic, wave-plan and clocking calls.
    const std::string traced_stats = outPath(o, "traced.jsonl");
    Recording trec = record(o, true, traced_stats);
    res.attempted += static_cast<int64_t>(trec.stepMs.size());
    TraceCtx &ctx = *trec.job.ctx;
    std::vector<double> tsave, trestore;
    const auto traced_blob = checkpointRoundTrip(*trec.job.job, res,
                                                 &ctx.log, &tsave, &trestore);
    const auto untraced_blob = checkpointRoundTrip(rj, res, nullptr);
    res.check(traced_blob == untraced_blob,
              "traced recording's final state differs from the untraced run");
    res.check(readFile(traced_stats) == readFile(stats_path),
              "traced recording's loss sequence differs from the untraced "
              "run");

    SpanLog rlog;
    const arch::EpochTrace &epoch = trec.trace->epoch(0);
    std::vector<double> eval_ms, plan_ms, clock_ms, traced_replay;
    sim::TraceSimResult last_sim;
    for (size_t i = 0; i < replay_ms.size(); ++i) {
        ReplayOut r;
        const double t0 = nowMs();
        ScopedSpan replay(&rlog, "replay", "bench");
        double a = nowMs();
        {
            ScopedSpan s(&rlog, "arch.evaluate", "arch");
            r.sparse = procrustes.evaluateTrace(*trec.trace, 0);
        }
        double b = nowMs();
        double evaluate = b - a;
        sim::EpochWavePlan plan;
        {
            ScopedSpan s(&rlog, "sim.plan", "sim");
            plan = sim::buildEpochWavePlan(
                epoch, procrustes.mapping(), procrustes.costModel().config(),
                procrustes.costModel().options().balance);
        }
        const double c = nowMs();
        {
            ScopedSpan s(&rlog, "sim.clock", "sim");
            r.sim = sim::simulateEpochPlan(plan, sim::SimConfig{});
        }
        const double d = nowMs();
        {
            ScopedSpan s(&rlog, "arch.evaluate", "arch");
            r.dense = dense.evaluateTrace(*trec.trace, 0);
        }
        evaluate += nowMs() - d;
        traced_replay.push_back(nowMs() - t0);
        eval_ms.push_back(evaluate);
        plan_ms.push_back(c - b);
        clock_ms.push_back(d - c);
        ++res.attempted;
        checkReplay(r, first, res);
        last_sim = r.sim;
    }

    layerMetrics({&ctx}, trec.job.job->epochsCompleted(), res);
    sparsityAt(ctx, 2 * (trec.data->train.size() / kBatch) - 1, res);
    auto &m = res.metrics;
    m["serve.ckpt_save_ms_p50"] = median(tsave);
    m["serve.ckpt_restore_ms_p50"] = median(trestore);
    m["serve.ckpt_bytes"] = static_cast<double>(traced_blob.size());
    m["arch.evaluate_ms_p50"] = median(eval_ms);
    m["arch.model_speedup_x"] = speedup;
    m["arch.model_energy_x"] = energy;
    m["sim.plan_ms_p50"] = median(plan_ms);
    m["sim.clock_ms_p50"] = median(clock_ms);
    m["sim.mcycles_per_s"] = static_cast<double>(last_sim.total.cycles) /
                             (median(clock_ms) * 1e3);
    m["sim.cycles"] = static_cast<double>(first.sim.total.cycles);
    m["sim.macs_retired"] = static_cast<double>(first.sim.total.macsRetired);
    m["sim.stall_frac"] = stall_frac;
    m["sim.analytic_cycle_ratio"] = first.sim.analyticCycleRatio;
    m["bench.trace_overhead_frac"] =
        median(traced_replay) / median(replay_ms) - 1.0;

    // Host-vs-model join on the layer key: host fw/bw ms from the traced
    // recording epoch beside simulated cycles per (layer, phase).
    const int64_t steps_per_epoch = trec.data->train.size() / kBatch;
    std::map<std::string, std::vector<double>> host;
    for (const Span &s : ctx.log.spans()) {
        if (s.step >= steps_per_epoch && s.cat != "serve")
            host[s.name].push_back(s.ms());
    }
    std::vector<std::string> join;
    int64_t piece_cycles = 0;
    for (const arch::LayerTrace &l : epoch.layers) {
        Json row;
        row.str("layer", l.name)
            .num("host_fw_ms_p50", median(host[l.name + ".fw"]))
            .num("host_bw_ms_p50", median(host[l.name + ".bw"]));
        for (arch::Phase ph : {arch::Phase::Forward, arch::Phase::Backward,
                               arch::Phase::WeightUpdate}) {
            const sim::SimResult sr = sim::simulateTraceLayerPhase(
                l, ph, procrustes.mapping(), epoch.batchSize,
                procrustes.costModel().config(), sim::SimConfig{},
                procrustes.costModel().options().balance);
            row.integer("sim_" + arch::phaseName(ph) + "_cycles", sr.cycles);
            piece_cycles += sr.cycles;
        }
        join.push_back(row.dump());
    }
    res.details.raw("host_model_join", jsonArray(join));
    // Serial drain, refill off: the epoch is the sum of its pieces.
    res.check(piece_cycles == last_sim.total.cycles,
              "per-(layer, phase) sim cycles do not add up to the epoch");

    std::vector<int64_t> replay_root;
    for (size_t i = 0; i < rlog.spans().size(); ++i) {
        if (rlog.spans()[i].name == "replay")
            replay_root = {static_cast<int64_t>(i)};
    }
    const std::string chrome = o.outDir + "/trace_" + o.workload + ".json";
    res.check(perfbench::writeChromeTrace(
                  chrome, collectSpans({{&rlog, replay_root}})),
              "cannot write " + chrome);
    res.details.str("chrome_trace", chrome);
}

// ---- main -----------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR [--revision REV]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("bad --seed");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(o.seconds > 0.0))
                usage("bad --seconds");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out-dir") {
            o.outDir = v;
        } else if (a == "--revision") {
            o.revision = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool::resetGlobal(static_cast<int>(nproc));

    Result res;
    if (o.workload == "dropback_sparse" || o.workload == "dense_sgd_gemm")
        runSingleJob(o, res);
    else if (o.workload == "tenants_prune_ckpt")
        runTenants(o, res);
    else if (o.workload == "cosim_replay")
        runCosim(o, res);
    else
        usage(("unknown workload " + o.workload).c_str());

    // Every catalogue metric is reported; a per-layer metric whose layer
    // does no work on this workload reads 0.
    Json metrics;
    if (o.trace) {
        for (const MetricDef &d : perLayerDefs()) {
            const auto it = res.metrics.find(d.name);
            metrics.raw(d.name, Json()
                                    .num("value", it == res.metrics.end()
                                                      ? 0.0
                                                      : it->second)
                                    .str("unit", d.unit)
                                    .dump());
        }
    } else {
        for (const MetricDef &d : kEndToEnd) {
            const auto it = res.metrics.find(d.name);
            res.check(it != res.metrics.end() && std::isfinite(it->second),
                      "metric not measured: " + d.name);
            metrics.raw(d.name,
                        Json()
                            .num("value", it == res.metrics.end()
                                              ? 0.0
                                              : it->second)
                            .str("unit", d.unit)
                            .dump());
        }
    }

    std::vector<std::string> fails;
    for (const std::string &f : res.failures)
        fails.push_back(quote(f));
    Json host;
    host.integer("nproc", nproc)
        .integer("pool_threads", ThreadPool::global().numThreads())
        .str("simd", kernels::simdLevelName(kernels::activeSimdLevel()))
        .str("workload", o.workload)
        .integer("seed", static_cast<int64_t>(o.seed))
        .num("seconds", o.seconds)
        .integer("trace", o.trace ? 1 : 0)
        .str("revision", o.revision);
    res.details.raw("host", host.dump()).raw("failures", jsonArray(fails));

    const std::string details_path = outPath(o, "details.json");
    FILE *f = std::fopen(details_path.c_str(), "w");
    if (f) {
        std::fprintf(f, "%s\n", res.details.dump().c_str());
        std::fclose(f);
    }
    std::printf("%s\n", Json()
                            .boolean("correct", res.failed == 0)
                            .integer("attempted", res.attempted)
                            .integer("failed", res.failed)
                            .raw("metrics", metrics.dump())
                            .dump()
                            .c_str());
    return 0;
}
