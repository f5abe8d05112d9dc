/**
 * @file
 * Outside-in tracing for the benchmark: spans recorded around calls
 * into the library's public seams, never inside it.
 *
 * TracedLayer wraps one nn::Layer and TracedOptimizer one
 * nn::Optimizer. Both forward every virtual to the wrapped object
 * unchanged, so a network built from decorators trains bitwise like the
 * bare one; the only added work is reading a steady clock around
 * forward/backward/step. The benchmark hands the decorators in through
 * serve::NetworkBuilder / serve::OptimizerFactory, the same seams a
 * service tenant uses.
 */

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/sgd.h"

namespace perfbench {

/** Milliseconds on a steady clock since the first call in the process. */
double nowMs();

/** One timed interval. `parent` indexes the owning log; -1 is a root. */
struct Span
{
    std::string name;     //!< e.g. "c1.fw", "serve.step", "opt"
    std::string cat;      //!< layer kind or module ("conv", "serve", ...)
    double startMs = 0.0;
    double endMs = 0.0;
    int64_t parent = -1;
    int64_t step = -1;    //!< training step the span belongs to
    int tenant = -1;      //!< job index on multi-tenant workloads

    double ms() const { return endMs - startMs; }
};

/**
 * In-memory span store for one thread of control (one training job).
 * Not thread-safe: each concurrently running job gets its own log.
 *
 * The step id advances when the network's first layer runs a training
 * forward, so spans are grouped by step without a hook inside the step.
 */
class SpanLog
{
  public:
    explicit SpanLog(int tenant = -1) : tenant_(tenant) {}

    int64_t open(const std::string &name, const std::string &cat);
    void close(int64_t id);

    void beginStep() { ++step_; }
    int64_t step() const { return step_; }
    int tenant() const { return tenant_; }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
    int64_t step_ = -1;
    int tenant_;
};

/** RAII span on a log; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name,
               const std::string &cat)
        : log_(log), id_(log ? log->open(name, cat) : -1)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int64_t id_;
};

/** Layer kind used to aggregate spans ("conv", "fc", "bn", "relu",
    "pool", or "other"). */
std::string layerKind(const procrustes::nn::Layer &layer);

/** Decorator recording fw / bw / eval spans around one layer. */
class TracedLayer : public procrustes::nn::Layer
{
  public:
    /** `first` marks the network's input layer, whose training forward
        opens a new step on the log. */
    TracedLayer(std::unique_ptr<procrustes::nn::Layer> inner,
                SpanLog *log, bool first);

    procrustes::Tensor forward(const procrustes::Tensor &x,
                               bool training) override;
    procrustes::Tensor backward(const procrustes::Tensor &dy) override;
    std::vector<procrustes::nn::Param *> params() override;
    std::string name() const override;
    bool stepReport(procrustes::nn::LayerStepReport *out) const override;
    void serializeState(procrustes::ByteWriter &w) const override;
    void restoreState(procrustes::ByteReader &r) override;

    procrustes::nn::Layer &inner() { return *inner_; }
    const std::string &kind() const { return kind_; }

  private:
    std::unique_ptr<procrustes::nn::Layer> inner_;
    SpanLog *log_;
    bool first_;
    std::string name_;
    std::string kind_;
};

/**
 * Decorator recording a span around each optimizer step. `probe`, when
 * set, runs after the step inside its own "bench.probe" span: the
 * benchmark samples masks and MAC counts there, so the sampling cost is
 * attributed to the tracer and never to the optimizer.
 */
class TracedOptimizer : public procrustes::nn::Optimizer
{
  public:
    /** `span_name` is the module-qualified optimizer span, e.g.
        "sparse.optimizer" or "nn.optimizer". */
    TracedOptimizer(std::unique_ptr<procrustes::nn::Optimizer> inner,
                    SpanLog *log, std::string span_name,
                    std::function<void(
                        const std::vector<procrustes::nn::Param *> &)>
                        probe = {});

    void step(const std::vector<procrustes::nn::Param *> &params) override;
    const char *stateKind() const override;
    bool checkpointComplete() const override;
    void serializeState(procrustes::ByteWriter &w) const override;
    void restoreState(procrustes::ByteReader &r) override;

  private:
    std::unique_ptr<procrustes::nn::Optimizer> inner_;
    SpanLog *log_;
    std::string spanName_;
    std::function<void(const std::vector<procrustes::nn::Param *> &)>
        probe_;
};

/** Write spans as a Chrome trace-event JSON file (chrome://tracing,
    Perfetto). A span's id is its index in `spans` and its parent
    indexes the same vector; each event's args carry id, parent, step
    and tenant. Returns false if the file cannot be written. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACING_H_
