#include "arch/wave_plan.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"

namespace procrustes {
namespace arch {

int64_t
weightTileChunk(const ArrayConfig &cfg, const LayerShape &layer,
                int64_t ext, int64_t array_dim)
{
    const int64_t rf_weight_words = (cfg.rfBytesPerPe / 4) * 3 / 4;
    const int64_t by_rf =
        std::max<int64_t>(1, rf_weight_words / (layer.R * layer.S));
    const int64_t by_need = ceilDiv(ext, array_dim);
    return std::min(by_rf, by_need);
}

double
macsPerIndex(const LayerShape &layer, MappingKind mapping, int64_t batch)
{
    const auto dims = spatialDims(mapping);
    const double dense_macs =
        static_cast<double>(batch) *
        static_cast<double>(layer.macsPerSample());
    return dense_macs /
           static_cast<double>(dimExtent(layer, dims[0], batch) *
                               dimExtent(layer, dims[1], batch));
}

double
effectiveDensity(Operand sp, const LayerSparsityProfile &profile,
                 bool sparse)
{
    if (!sparse)
        return 1.0;
    return sp == Operand::Weights ? profile.weightDensity()
                                  : profile.iactDensity();
}

const TileHalves &
WavePlan::tile(const PlanWave &w, int64_t i, int64_t j) const
{
    if (sparse0 && sparse1)
        return w.tiles[static_cast<size_t>(i * w.cols + j)];
    if (sparse0)
        return w.tiles[static_cast<size_t>(i)];
    if (sparse1)
        return w.tiles[static_cast<size_t>(j)];
    return w.tiles[0];
}

namespace {

/** Half-split slice densities (for the balancer). */
TileHalves
sliceHalves(const LayerSparsityProfile &profile, Operand op, Dim d,
            int64_t idx)
{
    if (op == Operand::Weights) {
        if (d == Dim::K) {
            return {profile.kHalfDensity(idx, 0),
                    profile.kHalfDensity(idx, 1)};
        }
        if (d == Dim::C) {
            return {profile.cHalfDensity(idx, 0),
                    profile.cHalfDensity(idx, 1)};
        }
        PANIC("weights sliced along a non-weight dim");
    }
    if (d == Dim::N) {
        return {profile.iactSampleHalfDensity(idx, 0),
                profile.iactSampleHalfDensity(idx, 1)};
    }
    if (d == Dim::C) {
        return {profile.iactChannelHalfDensity(idx, 0),
                profile.iactChannelHalfDensity(idx, 1)};
    }
    PANIC("iacts sliced along an unsupported dim");
}

/** Density when both spatial dims index the sparse operand. */
double
pairDensity(const LayerSparsityProfile &profile, Operand op, Dim d0,
            int64_t i0, Dim d1, int64_t i1)
{
    if (op == Operand::Weights) {
        // Only the C,K pairing can index weights in both dims.
        const int64_t k = d0 == Dim::K ? i0 : i1;
        const int64_t c = d0 == Dim::K ? i1 : i0;
        return profile.kernelDensity(k, c);
    }
    if ((d0 == Dim::P && d1 == Dim::Q) || (d0 == Dim::Q && d1 == Dim::P)) {
        // Keep (p, q) order: the measured spatial marginals are not
        // symmetric under index swap.
        const int64_t p = d0 == Dim::P ? i0 : i1;
        const int64_t q = d0 == Dim::P ? i1 : i0;
        return profile.iactSpatialDensity(p, q);
    }
    // C,N pairing: ratio-combine the channel and sample densities so
    // the mean stays near the layer's mean activation density.
    const auto marginal = [&](Dim d, int64_t idx) {
        if (d == Dim::N)
            return profile.iactSampleDensity(idx);
        if (d == Dim::C)
            return profile.iactChannelDensity(idx);
        PANIC("iacts paired along an unsupported dim");
    };
    const double dens0 = marginal(d0, i0);
    const double dens1 = marginal(d1, i1);
    const double mean_density = profile.iactDensity();
    return clampd(dens0 * dens1 / std::max(mean_density, 1e-9), 0.01,
                  1.0);
}

/** ProfileWork as the planner queries it. */
struct ProfileSource
{
    const ProfileWork &w;

    bool structured() const { return w.sparse && w.structured; }

    double
    uniform(Operand sp) const
    {
        return w.scale * effectiveDensity(sp, w.profile, w.sparse);
    }

    TileHalves
    slice(Operand sp, Dim d, int64_t idx) const
    {
        TileHalves h = sliceHalves(w.profile, sp, d, idx);
        h.first *= w.scale;
        h.second *= w.scale;
        return h;
    }

    double
    pair(Operand sp, Dim d0, int64_t i0, Dim d1, int64_t i1) const
    {
        return w.scale * pairDensity(w.profile, sp, d0, i0, d1, i1);
    }
};

/** Measured mean density with an index wrapped into a vector, or the
    scalar mean when no vector was measured (ragged epochs drop them). */
double
wrapped(const std::vector<double> &v, int64_t idx, double fallback)
{
    if (v.empty())
        return fallback;
    return v[static_cast<size_t>(idx) % v.size()];
}

/**
 * Half-split work of one slice of the sparse operand along dim `d`.
 * Weights slice to exact live-position counts from the epoch-final
 * mask, halved along the axis the half-tile balancer cuts;
 * activations slice to measured densities (per-sample halves where
 * the telemetry recorded them, per-channel means otherwise).
 */
TileHalves
measuredSliceWork(const LayerTrace &layer, Operand sp, Dim d, int64_t idx)
{
    const sparse::SparsityMask &mask = layer.mask;
    if (sp == Operand::Weights) {
        if (d != Dim::K && d != Dim::C)
            PANIC("weights sliced along a non-weight dim");
        // A K-slice halves along C and a C-slice along K — the axis
        // the half-tile balancer cuts (Figure 9); a single-kernel-wide
        // slice splits its count evenly.
        const bool by_k = d == Dim::K;
        const int64_t across = by_k ? mask.C : mask.K;
        const auto nnz = [&](int64_t lo, int64_t hi) {
            return static_cast<double>(
                by_k ? mask.tileNnz(idx, idx + 1, lo, hi)
                     : mask.tileNnz(lo, hi, idx, idx + 1));
        };
        if (across <= 1) {
            const double w = nnz(0, across);
            return {w / 2.0, w / 2.0};
        }
        return {nnz(0, across / 2), nnz(across / 2, across)};
    }
    if (d == Dim::N) {
        // Measured per-sample halves (already split along C by the
        // telemetry scan); fall back to an even split of the sample
        // density, then to the scalar mean.
        const double sample =
            wrapped(layer.iacts.perSample, idx, layer.iacts.mean);
        const std::vector<double> &halves = layer.iacts.perSampleHalf;
        if (halves.empty())
            return {sample / 2.0, sample / 2.0};
        return {wrapped(halves, idx * 2, sample / 2.0),
                wrapped(halves, idx * 2 + 1, sample / 2.0)};
    }
    if (d == Dim::C) {
        const double chan =
            wrapped(layer.iacts.perChannel, idx, layer.iacts.mean);
        return {chan / 2.0, chan / 2.0};
    }
    PANIC("iacts sliced along an unsupported dim");
}

/**
 * Work of one PE tile (or one kernel of a chunk) when both spatial
 * dims index the sparse operand: exact per-kernel counts for weights,
 * ratio-combined measured marginals (clamped to [0, 1]) for
 * activations.
 */
double
measuredPairWork(const LayerTrace &layer, Operand sp, Dim d0, int64_t i0,
                 Dim d1, int64_t i1)
{
    if (sp == Operand::Weights) {
        // Only the C,K pairing can index weights in both dims.
        const int64_t k = d0 == Dim::K ? i0 : i1;
        const int64_t c = d0 == Dim::K ? i1 : i0;
        return static_cast<double>(layer.mask.blockNnz(k, c));
    }
    // Activation pairings: ratio-combine the measured marginals. C and
    // N index their per-slot vectors directly; P and Q map the output
    // location onto the measured *input-space* spatial marginals
    // through the layer stride (clamped to the measured extent).
    double work = 1.0;
    bool any = false;
    for (const auto &di : {std::make_pair(d0, i0), std::make_pair(d1, i1)}) {
        if (di.first == Dim::N) {
            work *= wrapped(layer.iacts.perSample, di.second,
                            layer.iacts.mean);
            any = true;
        } else if (di.first == Dim::C) {
            work *= wrapped(layer.iacts.perChannel, di.second,
                            layer.iacts.mean);
            any = true;
        } else if (di.first == Dim::P || di.first == Dim::Q) {
            const std::vector<double> &m = di.first == Dim::P
                                               ? layer.iacts.perRow
                                               : layer.iacts.perCol;
            if (!m.empty()) {
                const int64_t last =
                    static_cast<int64_t>(m.size()) - 1;
                const int64_t at =
                    std::min(di.second * layer.shape.stride, last);
                work *= m[static_cast<size_t>(at)];
                any = true;
            }
        }
    }
    if (!any)
        return layer.iacts.mean;
    const double mean = std::max(layer.iacts.mean, 1e-9);
    return clampd(work / mean, 0.0, 1.0);
}

/** TraceWork as the planner queries it. */
struct TraceSource
{
    const TraceWork &w;

    bool structured() const { return true; }

    /** Dense positions of one kernel. */
    double
    kernelPositions() const
    {
        return static_cast<double>(
            std::max<int64_t>(1, w.layer.mask.R) *
            std::max<int64_t>(1, w.layer.mask.S));
    }

    double
    uniform(Operand sp) const
    {
        return sp == Operand::Weights ? w.layer.weightDensity()
                                      : w.layer.iacts.mean;
    }

    TileHalves
    slice(Operand sp, Dim d, int64_t idx) const
    {
        TileHalves h = measuredSliceWork(w.layer, sp, d, idx);
        if (w.perPosition && sp == Operand::Weights) {
            const int64_t across =
                d == Dim::K ? w.layer.mask.C : w.layer.mask.K;
            const double vol = static_cast<double>(
                                   std::max<int64_t>(1, across)) *
                               kernelPositions();
            h.first /= vol;
            h.second /= vol;
        }
        return h;
    }

    double
    pair(Operand sp, Dim d0, int64_t i0, Dim d1, int64_t i1) const
    {
        const double work = measuredPairWork(w.layer, sp, d0, i0, d1, i1);
        return w.perPosition && sp == Operand::Weights
                   ? work / kernelPositions()
                   : work;
    }
};

/** The one wave builder, over either source. */
template <typename Source>
WavePlan
buildPlan(const LayerShape &layer, Phase phase, MappingKind mapping,
          int64_t batch, const ArrayConfig &cfg, const Source &src)
{
    WavePlan plan;
    plan.dims = spatialDims(mapping);
    const Dim d0 = plan.dims[0];
    const Dim d1 = plan.dims[1];
    const int64_t ext0 = dimExtent(layer, d0, batch);
    const int64_t ext1 = dimExtent(layer, d1, batch);
    plan.extent = {ext0, ext1};
    const Operand sp = sparseOperand(phase);
    plan.sparse0 = src.structured() && dependsOn(sp, d0);
    plan.sparse1 = src.structured() && dependsOn(sp, d1);
    if (plan.sparse0 && plan.sparse1 && sp == Operand::Weights)
        plan.chunk = weightTileChunk(cfg, layer, ext1, cfg.cols);

    const int64_t g = plan.chunk;
    plan.waves.reserve(static_cast<size_t>(
        ceilDiv(ext0, cfg.rows) * ceilDiv(ext1, cfg.cols * g)));
    for (int64_t b0 = 0; b0 < ext0; b0 += cfg.rows) {
        for (int64_t b1 = 0; b1 < ext1; b1 += cfg.cols * g) {
            PlanWave w;
            w.origin0 = b0;
            w.origin1 = b1;
            w.rows = std::min<int64_t>(cfg.rows, ext0 - b0);
            w.cols = std::min<int64_t>(cfg.cols, ceilDiv(ext1 - b1, g));
            if (!plan.sparse0 && !plan.sparse1) {
                const double u = src.uniform(sp);
                w.tiles.push_back({u / 2.0, u / 2.0});
            } else if (plan.balanceable()) {
                const Dim d = plan.sparse0 ? d0 : d1;
                const int64_t base = plan.sparse0 ? b0 : b1;
                const int64_t count = plan.sparse0 ? w.rows : w.cols;
                w.tiles.reserve(static_cast<size_t>(count));
                for (int64_t i = 0; i < count; ++i)
                    w.tiles.push_back(src.slice(sp, d, base + i));
            } else {
                // No half split exists per PE here: halves are even,
                // and half-tile pairing never runs on two sparse axes.
                w.tiles.reserve(static_cast<size_t>(w.rows * w.cols));
                for (int64_t i = 0; i < w.rows; ++i) {
                    for (int64_t j = 0; j < w.cols; ++j) {
                        const int64_t base = b1 + j * g;
                        const int64_t count = std::min(g, ext1 - base);
                        double work = 0.0;
                        for (int64_t t = 0; t < count; ++t)
                            work += src.pair(sp, d0, b0 + i, d1, base + t);
                        w.tiles.push_back({work / 2.0, work / 2.0});
                    }
                }
            }
            plan.waves.push_back(std::move(w));
        }
    }
    return plan;
}

} // namespace

WavePlan
planWaves(const LayerShape &layer, Phase phase, MappingKind mapping,
          int64_t batch, const ArrayConfig &cfg, const ProfileWork &work)
{
    return buildPlan(layer, phase, mapping, batch, cfg,
                     ProfileSource{work});
}

WavePlan
planWaves(Phase phase, MappingKind mapping, int64_t batch,
          const ArrayConfig &cfg, const TraceWork &work)
{
    return buildPlan(work.layer.shape, phase, mapping, batch, cfg,
                     TraceSource{work});
}

} // namespace arch
} // namespace procrustes
