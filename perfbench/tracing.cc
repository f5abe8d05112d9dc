#include "tracing.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace perfbench {

using procrustes::ByteReader;
using procrustes::ByteWriter;
using procrustes::Tensor;
namespace nn = procrustes::nn;

double
nowMs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int64_t
SpanLog::open(const std::string &name, const std::string &cat)
{
    Span s;
    s.name = name;
    s.cat = cat;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.step = step_;
    s.tenant = tenant_;
    const auto id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    stack_.push_back(id);
    // Read the clock last, so the bookkeeping above is outside the span.
    spans_.back().startMs = nowMs();
    return id;
}

void
SpanLog::close(int64_t id)
{
    const double end = nowMs();
    Span &s = spans_[static_cast<size_t>(id)];
    s.endMs = end;
    // A span opened before the step advanced (the harness's step span)
    // belongs to the step it enclosed.
    s.step = step_;
    stack_.pop_back();
}

std::string
layerKind(const nn::Layer &layer)
{
    if (dynamic_cast<const nn::Conv2d *>(&layer))
        return "conv";
    if (dynamic_cast<const nn::Linear *>(&layer))
        return "fc";
    if (dynamic_cast<const nn::BatchNorm2d *>(&layer))
        return "bn";
    if (dynamic_cast<const nn::ReLU *>(&layer))
        return "relu";
    if (dynamic_cast<const nn::MaxPool2d *>(&layer) ||
        dynamic_cast<const nn::GlobalAvgPool *>(&layer))
        return "pool";
    return "other";
}

TracedLayer::TracedLayer(std::unique_ptr<nn::Layer> inner, SpanLog *log,
                         bool first)
    : inner_(std::move(inner)), log_(log), first_(first),
      name_(inner_->name()), kind_(layerKind(*inner_))
{}

Tensor
TracedLayer::forward(const Tensor &x, bool training)
{
    if (training && first_)
        log_->beginStep();
    ScopedSpan s(log_, name_ + (training ? ".fw" : ".eval"), kind_);
    return inner_->forward(x, training);
}

Tensor
TracedLayer::backward(const Tensor &dy)
{
    ScopedSpan s(log_, name_ + ".bw", kind_);
    return inner_->backward(dy);
}

std::vector<nn::Param *>
TracedLayer::params()
{
    return inner_->params();
}

std::string
TracedLayer::name() const
{
    return inner_->name();
}

bool
TracedLayer::stepReport(nn::LayerStepReport *out) const
{
    return inner_->stepReport(out);
}

void
TracedLayer::serializeState(ByteWriter &w) const
{
    inner_->serializeState(w);
}

void
TracedLayer::restoreState(ByteReader &r)
{
    inner_->restoreState(r);
}

TracedOptimizer::TracedOptimizer(
    std::unique_ptr<nn::Optimizer> inner, SpanLog *log,
    std::string span_name,
    std::function<void(const std::vector<nn::Param *> &)> probe)
    : inner_(std::move(inner)), log_(log), spanName_(std::move(span_name)),
      probe_(std::move(probe))
{
    iteration_ = inner_->iteration();
}

void
TracedOptimizer::step(const std::vector<nn::Param *> &params)
{
    {
        ScopedSpan s(log_, spanName_, "opt");
        inner_->step(params);
    }
    // iteration() is not virtual: keep the decorator's counter in step
    // with the wrapped optimizer's.
    iteration_ = inner_->iteration();
    if (probe_) {
        ScopedSpan s(log_, "bench.probe", "bench");
        probe_(params);
    }
}

const char *
TracedOptimizer::stateKind() const
{
    return inner_->stateKind();
}

bool
TracedOptimizer::checkpointComplete() const
{
    return inner_->checkpointComplete();
}

void
TracedOptimizer::serializeState(ByteWriter &w) const
{
    inner_->serializeState(w);
}

void
TracedOptimizer::restoreState(ByteReader &r)
{
    inner_->restoreState(r);
    iteration_ = inner_->iteration();
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Chrome trace events take microseconds.
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld, "
                     "\"step\": %lld, \"tenant\": %d, "
                     "\"start_ms\": %.6f, \"end_ms\": %.6f}}",
                     i ? "," : "", s.name.c_str(), s.cat.c_str(),
                     s.startMs * 1e3, (s.endMs - s.startMs) * 1e3,
                     s.tenant < 0 ? 0 : s.tenant + 1, i,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.step), s.tenant, s.startMs,
                     s.endMs);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
