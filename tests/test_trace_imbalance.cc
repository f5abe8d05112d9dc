/**
 * @file
 * Tests for the measured-mask load-balance replay
 * (arch/trace_imbalance.h): per-wave work built directly from
 * epoch-final weight masks and measured activation-density vectors,
 * cross-checked against brute-force per-PE tallies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/cost_model.h"
#include "arch/trace_imbalance.h"
#include "common/math_utils.h"

namespace procrustes {
namespace arch {
namespace {

/** A conv LayerShape with the geometry the mask describes. */
LayerShape
convShape(int64_t k, int64_t c, int64_t r, int64_t p)
{
    LayerShape s;
    s.name = "conv";
    s.type = LayerType::Conv;
    s.K = k;
    s.C = c;
    s.R = r;
    s.S = r;
    s.P = p;
    s.Q = p;
    return s;
}

/** One-layer epoch around a mask, dense activations by default. */
EpochTrace
epochAround(const sparse::SparsityMask &mask, int64_t batch)
{
    LayerTrace l;
    l.name = "conv";
    l.shape = convShape(mask.K, mask.C, mask.R, /*p=*/8);
    l.mask = mask;
    l.iacts.mean = 1.0;
    l.steps = 1;
    EpochTrace e;
    e.batchSize = batch;
    e.steps = 1;
    e.layers.push_back(std::move(l));
    return e;
}

TEST(TraceImbalance, UniformMaskReportsZeroOverheadEverywhere)
{
    // Every kernel carries the same non-zero count, so every per-PE
    // tile is identical: zero overhead per wave, under every mapping
    // and balancing policy, in the weight-sparse phases. The wu phase
    // is uniform too (mean-only activation measurement).
    sparse::SparsityMask mask = sparse::SparsityMask::dense(20, 6, 3, 3);
    for (int64_t k = 0; k < mask.K; ++k) {
        for (int64_t c = 0; c < mask.C; ++c) {
            // Zero the same two positions of every kernel.
            mask.bits[static_cast<size_t>((k * mask.C + c) * 9 + 0)] = 0;
            mask.bits[static_cast<size_t>((k * mask.C + c) * 9 + 4)] = 0;
        }
    }
    const EpochTrace e = epochAround(mask, 4);
    const ArrayConfig cfg = ArrayConfig::baseline16();

    for (MappingKind mapping : {MappingKind::CK, MappingKind::KN,
                                MappingKind::CN, MappingKind::PQ}) {
        for (BalanceMode balance : {BalanceMode::None,
                                    BalanceMode::HalfTile,
                                    BalanceMode::FullChip}) {
            for (Phase phase : {Phase::Forward, Phase::Backward,
                                Phase::WeightUpdate}) {
                const auto overheads = collectMeasuredOverheads(
                    e, phase, mapping, cfg, balance);
                ASSERT_FALSE(overheads.empty());
                for (double o : overheads)
                    EXPECT_NEAR(o, 0.0, 1e-12)
                        << mappingName(mapping) << " " << phaseName(phase);
            }
        }
    }
}

TEST(TraceImbalance, SingleHotSliceMatchesBruteForceTallyUnderKn)
{
    // All non-zeros live in K-slice 0. Under the K,N mapping each PE
    // column along K owns one slice, so the first wave has one loaded
    // PE and 15 idle ones; brute-force tally: max = nnz(k=0),
    // mean = total / active-PE count.
    sparse::SparsityMask mask = sparse::SparsityMask::dense(20, 6, 3, 3);
    for (int64_t k = 1; k < mask.K; ++k) {
        for (int64_t i = 0; i < mask.C * 9; ++i)
            mask.bits[static_cast<size_t>(k * mask.C * 9 + i)] = 0;
    }
    ASSERT_EQ(mask.tileNnz(0, 1, 0, mask.C), 6 * 9);
    const int64_t batch = 4;
    const EpochTrace e = epochAround(mask, batch);
    const ArrayConfig cfg = ArrayConfig::baseline16();

    const auto overheads = collectMeasuredOverheads(
        e, Phase::Forward, MappingKind::KN, cfg, BalanceMode::None);
    // K = 20 on a 16-row array: two K blocks, one N block (batch 4
    // under 16 columns) -> two waves.
    ASSERT_EQ(overheads.size(), 2u);

    // Brute force, wave 0 (k in [0, 16)): per-PE work is that slice's
    // live-weight count.
    std::vector<double> work;
    for (int64_t k = 0; k < 16; ++k)
        work.push_back(
            static_cast<double>(mask.tileNnz(k, k + 1, 0, mask.C)));
    const double peak = *std::max_element(work.begin(), work.end());
    double sum = 0.0;
    for (double w : work)
        sum += w;
    const double mean = sum / static_cast<double>(work.size());
    EXPECT_DOUBLE_EQ(overheads[0], peak / mean - 1.0);
    EXPECT_DOUBLE_EQ(overheads[0], 15.0);   // one hot PE of 16

    // Wave 1 (k in [16, 20)) holds no non-zeros at all: zero work
    // reports zero overhead, not a division blow-up.
    EXPECT_DOUBLE_EQ(overheads[1], 0.0);
}

TEST(TraceImbalance, ChunkedCkMatchesBruteForcePerPeTally)
{
    // The C,K mapping gives each PE an RF-bounded chunk of kernels
    // along K (weightTileChunk granularity). Rebuild the per-PE work
    // assignment by hand from the mask and compare.
    sparse::SparsityMask mask =
        sparse::makeSyntheticMask(20, 6, 3, 3, [] {
            sparse::SyntheticMaskConfig c;
            c.targetDensity = 0.3;
            c.seed = 99;
            return c;
        }());
    const int64_t batch = 4;
    const EpochTrace e = epochAround(mask, batch);
    const ArrayConfig cfg = ArrayConfig::baseline16();
    const LayerShape shape = e.layers[0].shape;

    const auto overheads = collectMeasuredOverheads(
        e, Phase::Forward, MappingKind::CK, cfg, BalanceMode::None);

    const int64_t g = weightTileChunk(cfg, shape, shape.K, cfg.cols);
    const int64_t stride1 = cfg.cols * g;
    std::vector<double> expect;
    for (int64_t b0 = 0; b0 < shape.C; b0 += cfg.rows) {
        const int64_t n0 = std::min<int64_t>(cfg.rows, shape.C - b0);
        for (int64_t b1 = 0; b1 < shape.K; b1 += stride1) {
            std::vector<double> work;
            for (int64_t i = 0; i < n0; ++i) {
                for (int64_t j = 0; j < cfg.cols; ++j) {
                    const int64_t base = b1 + j * g;
                    if (base >= shape.K)
                        break;
                    const int64_t count =
                        std::min(g, shape.K - base);
                    double w = 0.0;
                    for (int64_t t = 0; t < count; ++t)
                        w += static_cast<double>(
                            mask.blockNnz(base + t, b0 + i));
                    work.push_back(w);
                }
            }
            const double peak =
                *std::max_element(work.begin(), work.end());
            double sum = 0.0;
            for (double w : work)
                sum += w;
            expect.push_back(
                peak / (sum / static_cast<double>(work.size())) - 1.0);
        }
    }
    ASSERT_EQ(overheads.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_DOUBLE_EQ(overheads[i], expect[i]) << i;
}

TEST(TraceImbalance, WeightUpdateUsesMeasuredSampleVectors)
{
    // wu-phase tiles under K,N follow the measured per-sample
    // densities: one slow sample dominates the unbalanced wave, and
    // the measured C-split halves let half-tile pairing flatten it
    // completely when the halves complement.
    sparse::SparsityMask mask = sparse::SparsityMask::dense(20, 6, 3, 3);
    EpochTrace e = epochAround(mask, 4);
    MeasuredIactStats &iacts = e.layers[0].iacts;
    iacts.mean = 0.5;
    iacts.perSample = {0.2, 0.8, 0.5, 0.5};
    iacts.perSampleHalf = {0.1, 0.1, 0.4, 0.4, 0.25, 0.25, 0.25, 0.25};
    const ArrayConfig cfg = ArrayConfig::baseline16();

    const auto unbalanced = collectMeasuredOverheads(
        e, Phase::WeightUpdate, MappingKind::KN, cfg, BalanceMode::None);
    // Two K blocks replicate the same 4-sample wave.
    ASSERT_EQ(unbalanced.size(), 2u);
    EXPECT_NEAR(unbalanced[0], 0.8 / 0.5 - 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(unbalanced[0], unbalanced[1]);

    const auto balanced = collectMeasuredOverheads(
        e, Phase::WeightUpdate, MappingKind::KN, cfg,
        BalanceMode::HalfTile);
    // Sorted halves pair 0.1+0.4 twice and 0.25+0.25 twice: perfectly
    // flat.
    ASSERT_EQ(balanced.size(), 2u);
    EXPECT_NEAR(balanced[0], 0.0, 1e-12);
}

TEST(TraceImbalance, BalancedNeverExceedsUnbalancedOnSkewedMasks)
{
    // Lognormal kernel structure at several densities: per-wave
    // half-tile pairing must never exceed the unbalanced overhead,
    // wave for wave and in the pooled histograms.
    const ArrayConfig cfg = ArrayConfig::baseline16();
    for (double density : {0.1, 0.25, 0.5}) {
        sparse::SyntheticMaskConfig mc;
        mc.targetDensity = density;
        mc.kernelSigma = 0.6;
        mc.rowSigma = 0.3;
        mc.seed = static_cast<uint64_t>(density * 1000);
        const sparse::SparsityMask mask =
            sparse::makeSyntheticMask(48, 24, 3, 3, mc);
        const EpochTrace e = epochAround(mask, 16);

        for (Phase phase : {Phase::Forward, Phase::Backward}) {
            const auto ub = collectMeasuredOverheads(
                e, phase, MappingKind::KN, cfg, BalanceMode::None);
            const auto b = collectMeasuredOverheads(
                e, phase, MappingKind::KN, cfg, BalanceMode::HalfTile);
            ASSERT_EQ(ub.size(), b.size());
            for (size_t i = 0; i < ub.size(); ++i)
                EXPECT_LE(b[i], ub[i] + 1e-12) << i;
        }

        const EpochImbalance imb = measuredEpochImbalance(
            e, MappingKind::KN, cfg, BalanceMode::HalfTile);
        EXPECT_LE(imb.balanced.meanOverhead,
                  imb.unbalanced.meanOverhead + 1e-12);
        EXPECT_LE(imb.balanced.maxOverhead,
                  imb.unbalanced.maxOverhead + 1e-12);
        EXPECT_GT(imb.unbalanced.meanOverhead, 0.0);
    }
}

TEST(TraceImbalance, FullChipIsPerfectAndEmptyMaskIsSafe)
{
    sparse::SparsityMask mask = sparse::SparsityMask::dense(20, 6, 3, 3);
    std::fill(mask.bits.begin(), mask.bits.end(), 0);   // fully pruned
    const EpochTrace e = epochAround(mask, 4);
    const ArrayConfig cfg = ArrayConfig::baseline16();
    for (Phase phase : {Phase::Forward, Phase::Backward,
                        Phase::WeightUpdate}) {
        for (BalanceMode balance : {BalanceMode::None,
                                    BalanceMode::FullChip}) {
            for (double o : collectMeasuredOverheads(
                     e, phase, MappingKind::KN, cfg, balance))
                EXPECT_DOUBLE_EQ(o, 0.0);
        }
    }
}

TEST(TraceImbalance, WaveOverheadHonoursCheapBalancingGate)
{
    // The same skewed working set: half-tile balancing only applies
    // when the mapping admits it; on a two-sparse-axis mapping the
    // request silently degrades to unbalanced execution, exactly like
    // the cost model.
    const std::vector<TileHalves> tiles{{4.0, 4.0}, {1.0, 0.0},
                                        {0.5, 0.5}, {2.0, 1.0}};
    const double unbalanced =
        waveOverhead(tiles, BalanceMode::None, true);
    const double gated =
        waveOverhead(tiles, BalanceMode::HalfTile, false);
    const double applied =
        waveOverhead(tiles, BalanceMode::HalfTile, true);
    EXPECT_DOUBLE_EQ(gated, unbalanced);
    EXPECT_LT(applied, unbalanced);
    EXPECT_DOUBLE_EQ(waveOverhead(tiles, BalanceMode::FullChip, false),
                     0.0);
    EXPECT_DOUBLE_EQ(waveOverhead({}, BalanceMode::None, true), 0.0);
}

} // namespace
} // namespace arch
} // namespace procrustes
