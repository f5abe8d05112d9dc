/**
 * @file
 * Tests for the wave plan (arch/wave_plan.h): block order, per-wave
 * tile layout for each sparse-operand shape, RF chunking, and the
 * agreement of the profile and trace sources on a real mask.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "arch/wave_plan.h"
#include "common/math_utils.h"

namespace procrustes {
namespace arch {
namespace {

/** A conv layer plus a skewed mask of its weight geometry. */
struct Fixture
{
    LayerShape layer = convLayer("c", 40, 20, 3, 8);
    sparse::SparsityMask mask = sparse::makeSyntheticMask(
        layer.K, layer.effectiveC(), layer.R, layer.S, [] {
            sparse::SyntheticMaskConfig c;
            c.targetDensity = 0.3;
            c.kernelSigma = 0.8;
            c.seed = 21;
            return c;
        }());
    LayerSparsityProfile profile{mask, 0.5};
    ArrayConfig cfg = ArrayConfig::baseline16();
};

TEST(WavePlan, BlocksRowMajorWithOneTileShapePerSparseAxis)
{
    const Fixture f;
    const int64_t batch = 20;
    struct Case
    {
        MappingKind mapping;
        Phase phase;
        bool sparse0;
        bool sparse1;
    };
    for (const Case c : {Case{MappingKind::KN, Phase::Forward, true, false},
                         Case{MappingKind::KN, Phase::WeightUpdate, false,
                              true},
                         Case{MappingKind::CN, Phase::WeightUpdate, true,
                              true},
                         Case{MappingKind::PQ, Phase::Forward, false,
                              false}}) {
        const WavePlan plan = planWaves(f.layer, c.phase, c.mapping, batch,
                                        f.cfg, ProfileWork{f.profile});
        EXPECT_EQ(plan.sparse0, c.sparse0);
        EXPECT_EQ(plan.sparse1, c.sparse1);
        EXPECT_EQ(plan.chunk, 1);
        const int64_t blocks1 = ceilDiv(plan.extent[1], f.cfg.cols);
        ASSERT_EQ(plan.waves.size(),
                  static_cast<size_t>(ceilDiv(plan.extent[0], f.cfg.rows) *
                                      blocks1));
        for (size_t w = 0; w < plan.waves.size(); ++w) {
            const PlanWave &pw = plan.waves[w];
            EXPECT_EQ(pw.origin0,
                      static_cast<int64_t>(w) / blocks1 * f.cfg.rows);
            EXPECT_EQ(pw.origin1,
                      static_cast<int64_t>(w) % blocks1 * f.cfg.cols);
            EXPECT_EQ(pw.rows, std::min<int64_t>(
                                   f.cfg.rows, plan.extent[0] - pw.origin0));
            EXPECT_EQ(pw.cols, std::min<int64_t>(
                                   f.cfg.cols, plan.extent[1] - pw.origin1));
            const size_t tiles = c.sparse0 && c.sparse1 ? pw.rows * pw.cols
                                 : c.sparse0            ? pw.rows
                                 : c.sparse1            ? pw.cols
                                                        : 1;
            EXPECT_EQ(pw.tiles.size(), tiles);
        }
    }
}

TEST(WavePlan, WeightSparseCkChunksKernelsAlongTheColumns)
{
    const Fixture f;
    const WavePlan plan =
        planWaves(f.layer, Phase::Forward, MappingKind::CK, 4, f.cfg,
                  ProfileWork{f.profile});
    ASSERT_TRUE(plan.sparse0 && plan.sparse1);
    EXPECT_EQ(plan.chunk,
              weightTileChunk(f.cfg, f.layer, f.layer.K, f.cfg.cols));
    ASSERT_GT(plan.chunk, 1);
    // Each PE's work is the summed density of its kernel chunk.
    for (const PlanWave &pw : plan.waves) {
        EXPECT_EQ(pw.cols, ceilDiv(f.layer.K - pw.origin1, plan.chunk));
        for (int64_t i = 0; i < pw.rows; ++i) {
            for (int64_t j = 0; j < pw.cols; ++j) {
                const int64_t base = pw.origin1 + j * plan.chunk;
                double expect = 0.0;
                for (int64_t k = base;
                     k < std::min(base + plan.chunk, f.layer.K); ++k)
                    expect += f.profile.kernelDensity(k, pw.origin0 + i);
                EXPECT_DOUBLE_EQ(plan.tile(pw, i, j).total(), expect);
            }
        }
    }
}

TEST(WavePlan, UnstructuredSourceIsUniformAndUnchunked)
{
    // The dense baseline and the ideal machine model no per-slice
    // structure: every wave is one shared tile, never RF-chunked.
    const Fixture f;
    for (const ProfileWork &work :
         {ProfileWork{f.profile, 1.0, /*sparse=*/false},
          ProfileWork{f.profile, 1.0, true, /*structured=*/false}}) {
        const WavePlan plan = planWaves(f.layer, Phase::Forward,
                                        MappingKind::CK, 4, f.cfg, work);
        EXPECT_FALSE(plan.sparse0 || plan.sparse1);
        EXPECT_EQ(plan.chunk, 1);
        const double density = work.sparse ? f.profile.weightDensity()
                                           : 1.0;
        for (const PlanWave &pw : plan.waves) {
            ASSERT_EQ(pw.tiles.size(), 1u);
            EXPECT_DOUBLE_EQ(pw.tiles[0].total(), density);
        }
    }
}

TEST(WavePlan, TraceAndProfileSourcesAgreeOnTheMask)
{
    // Per-position trace work on the profile's own mask is the
    // profile's slice density, half by half and kernel by kernel.
    const Fixture f;
    LayerTrace lt;
    lt.shape = f.layer;
    lt.mask = f.mask;
    for (const auto &[mapping, phase] :
         {std::pair{MappingKind::KN, Phase::Forward},
          std::pair{MappingKind::CN, Phase::Backward},
          std::pair{MappingKind::CK, Phase::Forward}}) {
        const WavePlan p = planWaves(f.layer, phase, mapping, 8, f.cfg,
                                     ProfileWork{f.profile});
        const WavePlan t = planWaves(phase, mapping, 8, f.cfg,
                                     TraceWork{lt, /*perPosition=*/true});
        ASSERT_EQ(p.waves.size(), t.waves.size());
        for (size_t w = 0; w < p.waves.size(); ++w) {
            ASSERT_EQ(p.waves[w].tiles.size(), t.waves[w].tiles.size());
            for (size_t i = 0; i < p.waves[w].tiles.size(); ++i) {
                EXPECT_NEAR(p.waves[w].tiles[i].first,
                            t.waves[w].tiles[i].first, 1e-12);
                EXPECT_NEAR(p.waves[w].tiles[i].second,
                            t.waves[w].tiles[i].second, 1e-12);
            }
        }
    }
}

} // namespace
} // namespace arch
} // namespace procrustes
