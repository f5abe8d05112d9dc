/**
 * @file
 * The tracing decorators must be transparent: every nn::Layer and
 * nn::Optimizer virtual forwards to the wrapped object, and a network
 * built from decorators trains bitwise like the bare network.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "sparse/dropback.h"
#include "tracing.h"

namespace {

using namespace procrustes;
using perfbench::SpanLog;
using perfbench::TracedLayer;
using perfbench::TracedOptimizer;

/** Records every virtual call and returns recognisable values. */
class FakeLayer : public nn::Layer
{
  public:
    Tensor
    forward(const Tensor &x, bool training) override
    {
        ++forwards;
        lastTraining = training;
        Tensor y = x;
        y.at(0) += 1.0f;
        return y;
    }
    Tensor
    backward(const Tensor &dy) override
    {
        ++backwards;
        Tensor dx = dy;
        dx.at(0) *= 2.0f;
        return dx;
    }
    std::vector<nn::Param *> params() override { return {&param}; }
    std::string name() const override { return "fake"; }
    bool
    stepReport(nn::LayerStepReport *out) const override
    {
        out->layerName = "fake-report";
        out->fwMacs = 42;
        return true;
    }
    void
    serializeState(ByteWriter &w) const override
    {
        w.writeI64(7);
    }
    void
    restoreState(ByteReader &r) override
    {
        restored = r.readI64();
    }

    nn::Param param;
    int forwards = 0;
    int backwards = 0;
    bool lastTraining = false;
    int64_t restored = 0;
};

TEST(TracedLayer, ForwardsEveryVirtual)
{
    SpanLog log;
    auto fake = std::make_unique<FakeLayer>();
    FakeLayer *raw = fake.get();
    TracedLayer traced(std::move(fake), &log, /*first=*/true);
    nn::Layer &l = traced;

    Tensor x{1, 2};
    const Tensor y = l.forward(x, /*training=*/true);
    EXPECT_EQ(raw->forwards, 1);
    EXPECT_TRUE(raw->lastTraining);
    EXPECT_EQ(y.at(0), 1.0f);
    l.forward(x, /*training=*/false);
    EXPECT_FALSE(raw->lastTraining);

    Tensor dy{1, 2};
    dy.at(0) = 3.0f;
    EXPECT_EQ(l.backward(dy).at(0), 6.0f);
    EXPECT_EQ(raw->backwards, 1);

    ASSERT_EQ(l.params().size(), 1u);
    EXPECT_EQ(l.params()[0], &raw->param);
    EXPECT_EQ(l.name(), "fake");

    nn::LayerStepReport r;
    EXPECT_TRUE(l.stepReport(&r));
    EXPECT_EQ(r.layerName, "fake-report");
    EXPECT_EQ(r.fwMacs, 42);

    ByteWriter w;
    l.serializeState(w);
    ByteReader rd(w.bytes());
    l.restoreState(rd);
    EXPECT_EQ(raw->restored, 7);

    // One span per call: training forward, eval forward, backward; the
    // training forward of the first layer opened step 0.
    ASSERT_EQ(log.spans().size(), 3u);
    EXPECT_EQ(log.spans()[0].name, "fake.fw");
    EXPECT_EQ(log.spans()[1].name, "fake.eval");
    EXPECT_EQ(log.spans()[2].name, "fake.bw");
    EXPECT_EQ(log.step(), 0);
    for (const auto &s : log.spans())
        EXPECT_LE(s.startMs, s.endMs);
}

class FakeOptimizer : public nn::Optimizer
{
  public:
    void
    step(const std::vector<nn::Param *> &params) override
    {
        lastParams = params.size();
        ++iteration_;
    }
    const char *stateKind() const override { return "fake_opt"; }
    bool checkpointComplete() const override { return true; }
    void
    serializeState(ByteWriter &w) const override
    {
        w.writeI64(iteration_ + 100);
    }
    void
    restoreState(ByteReader &r) override
    {
        iteration_ = r.readI64() - 100;
    }

    size_t lastParams = 0;
};

TEST(TracedOptimizer, ForwardsEveryVirtual)
{
    SpanLog log;
    auto fake = std::make_unique<FakeOptimizer>();
    FakeOptimizer *raw = fake.get();
    int probes = 0;
    TracedOptimizer traced(std::move(fake), &log, "sparse.optimizer",
                           [&](const std::vector<nn::Param *> &) {
                               ++probes;
                           });
    nn::Optimizer &o = traced;

    nn::Param p;
    o.step({&p, &p});
    EXPECT_EQ(raw->lastParams, 2u);
    EXPECT_EQ(raw->iteration(), 1);
    EXPECT_EQ(o.iteration(), 1);
    EXPECT_EQ(probes, 1);
    EXPECT_STREQ(o.stateKind(), "fake_opt");
    EXPECT_TRUE(o.checkpointComplete());

    ByteWriter w;
    o.serializeState(w);
    ByteReader check(w.bytes());
    EXPECT_EQ(check.readI64(), 101);

    ByteWriter w5;
    w5.writeI64(105);
    ByteReader rd(w5.bytes());
    o.restoreState(rd);
    EXPECT_EQ(raw->iteration(), 5);
    EXPECT_EQ(o.iteration(), 5);

    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[0].name, "sparse.optimizer");
    EXPECT_EQ(log.spans()[1].name, "bench.probe");
}

/** Add layer L, wrapped in a TracedLayer when `log` is non-null. */
template <typename L, typename... A>
L *
put(nn::Network &net, SpanLog *log, A &&...args)
{
    if (!log)
        return net.add<L>(std::forward<A>(args)...);
    auto inner = std::make_unique<L>(std::forward<A>(args)...);
    L *raw = inner.get();
    const bool first = net.size() == 0;
    net.add<TracedLayer>(std::move(inner), log, first);
    return raw;
}

/** A small conv net covering every layer kind the benchmark wraps. */
void
buildNet(nn::Network &net, SpanLog *log)
{
    nn::Conv2dConfig c;
    c.inChannels = 3;
    c.outChannels = 8;
    c.kernel = 3;
    c.pad = 1;
    c.bias = false;
    put<nn::Conv2d>(net, log, c, "c1")
        ->setBackend(kernels::KernelBackend::kSparse);
    put<nn::BatchNorm2d>(net, log, 8, "bn1");
    put<nn::ReLU>(net, log, "r1");
    put<nn::MaxPool2d>(net, log, 2, "p1");
    put<nn::GlobalAvgPool>(net, log, "gap");
    put<nn::Linear>(net, log, 8, 4, "fc")
        ->setBackend(kernels::KernelBackend::kSparse);
    Xorshift128Plus rng(3);
    nn::kaimingInit(net, rng);
}

std::vector<float>
trainAndDump(SpanLog *log)
{
    nn::Network net;
    buildNet(net, log);
    sparse::DropbackConfig dc;
    dc.sparsity = 4.0;
    dc.initDecay = 0.9f;
    dc.decayHorizon = 2;
    dc.selection = sparse::SelectionMode::QuantileEstimate;
    std::unique_ptr<nn::Optimizer> opt =
        std::make_unique<sparse::DropbackOptimizer>(dc);
    if (log)
        opt = std::make_unique<TracedOptimizer>(std::move(opt), log,
                                                "sparse.optimizer");
    nn::SoftmaxCrossEntropy loss;
    Xorshift128Plus rng(11);
    const auto params = net.params();
    for (int step = 0; step < 4; ++step) {
        Tensor x{4, 3, 8, 8};
        x.fillGaussian(rng, 1.0f);
        std::vector<int> y = {0, 1, 2, 3};
        net.zeroGrad();
        loss.forward(net.forward(x, true), y);
        net.backward(loss.backward());
        opt->step(params);
    }
    std::vector<float> out;
    for (const nn::Param *p : params)
        out.insert(out.end(), p->value.data(),
                   p->value.data() + p->value.numel());
    return out;
}

TEST(TracedNetwork, TrainsBitwiseLikeTheBareNetwork)
{
    SpanLog log;
    const std::vector<float> bare = trainAndDump(nullptr);
    const std::vector<float> traced = trainAndDump(&log);
    ASSERT_EQ(bare.size(), traced.size());
    EXPECT_EQ(std::memcmp(bare.data(), traced.data(),
                          bare.size() * sizeof(float)),
              0);
    EXPECT_EQ(log.step(), 3);
    EXPECT_FALSE(log.spans().empty());
}

} // namespace
