/**
 * @file
 * The wave plan: the one schedule of full-PE-array waves that the
 * analytic cost model, the measured-mask imbalance replay, and the
 * cycle-level simulator all consume (Figure 4).
 *
 * A mapping spatializes two dims of the operation space onto the array
 * rows and columns. Work runs in waves of at most rows x cols PE
 * tiles, blocked along both dims in row-major block order (dim-0
 * blocks outer). Per-PE work follows the phase's sparse operand:
 *
 *   - it depends on neither spatial dim (or the source models no
 *     per-slice structure): every PE carries the same work, and the
 *     wave holds one shared tile;
 *   - it depends on exactly one: one tile per slice along that axis,
 *     replicated across the other axis;
 *   - it depends on both: one tile per active PE, row-major. When both
 *     dims index the weights (weight-stationary C,K), each PE holds an
 *     RF-bounded chunk of kernels along dim 1 and its work is the
 *     chunk's sum — the granularity that keeps Figure 5's overheads in
 *     the tens of percent.
 *
 * Tiles are the *unbalanced* work halves of each slot (split along the
 * axis the half-tile balancer cuts, Figure 9); balancing, normalization
 * to cycles, and demand derivation are left to each consumer. Two
 * density sources feed the plan: the analytic model's
 * LayerSparsityProfile rules (ProfileWork) and a measured
 * WorkloadTrace layer (TraceWork).
 */

#ifndef PROCRUSTES_ARCH_WAVE_PLAN_H_
#define PROCRUSTES_ARCH_WAVE_PLAN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "arch/arch_config.h"
#include "arch/dataflow.h"
#include "arch/load_balancer.h"
#include "arch/sparsity_profile.h"
#include "arch/workload_trace.h"

namespace procrustes {
namespace arch {

/**
 * Kernels per work tile along the spatialized weight dimension:
 * bounded by half the register file (weight-stationary residency) and
 * never more than what one pass over the dimension requires. Single
 * kernels only when the dimension is small or kernels are large.
 */
int64_t weightTileChunk(const ArrayConfig &cfg, const LayerShape &layer,
                        int64_t ext, int64_t array_dim);

/** Dense MACs per (dim-0, dim-1) index pair of a mapping. */
double macsPerIndex(const LayerShape &layer, MappingKind mapping,
                    int64_t batch);

/** Density of the sparse operand `sp`, or 1 on a dense machine. */
double effectiveDensity(Operand sp, const LayerSparsityProfile &profile,
                        bool sparse);

/**
 * Profile source: the analytic model's density rules over a
 * LayerSparsityProfile. Slices read the profile's half-slice
 * densities; the C,N activation pairing ratio-combines the channel and
 * sample densities; P,Q reads the spatial density; weight pairs read
 * per-kernel densities.
 */
struct ProfileWork
{
    const LayerSparsityProfile &profile;
    /** Multiplies every density (the cost model passes macsPerIndex,
        so tiles are in MACs). */
    double scale = 1.0;
    /** False: a dense machine, density 1 everywhere. */
    bool sparse = true;
    /** False: ignore per-slice structure (dense baseline, the
        Figure 1 idealization) — every wave is uniform. */
    bool structured = true;
};

/**
 * Trace source: a measured epoch's facts. Weights count exact live
 * positions of the epoch-final mask (SparsityMask::tileNnz, halved
 * along the axis the balancer cuts; SparsityMask::blockNnz per
 * kernel); activations read the measured per-sample (halves where
 * recorded), per-channel, and spatial density vectors, ratio-combined
 * on two axes.
 */
struct TraceWork
{
    const LayerTrace &layer;
    /** Divide weight counts by the dense positions they cover (slice or
        kernel volume), turning counts into densities. */
    bool perPosition = false;
};

/** One full-array wave of a plan. */
struct PlanWave
{
    int64_t origin0 = 0;   //!< first index along spatial dim 0
    int64_t origin1 = 0;   //!< first index along spatial dim 1
    int64_t rows = 0;      //!< active PE rows
    int64_t cols = 0;      //!< active PE columns (chunks when chunk > 1)
    /** Unbalanced work halves: one shared tile, one per slice along
        the sparse axis, or one per active PE (row-major). */
    std::vector<TileHalves> tiles;
};

/** The wave schedule of one (layer, phase, mapping, batch, array). */
struct WavePlan
{
    std::array<Dim, 2> dims{};          //!< spatialDims(mapping)
    std::array<int64_t, 2> extent{};    //!< dimExtent of each dim
    bool sparse0 = false;   //!< tiles vary along dim 0
    bool sparse1 = false;   //!< tiles vary along dim 1
    int64_t chunk = 1;      //!< kernels per PE along dim 1
    std::vector<PlanWave> waves;   //!< row-major block order

    /** Exactly one sparse axis: half-tile pairing may run along it
        (supportsCheapBalancing). */
    bool balanceable() const { return sparse0 != sparse1; }

    /** Unbalanced work of PE (i, j) of a wave. */
    const TileHalves &tile(const PlanWave &w, int64_t i, int64_t j) const;
};

/** Plan a layer's waves with work from a sparsity profile. */
WavePlan planWaves(const LayerShape &layer, Phase phase,
                   MappingKind mapping, int64_t batch,
                   const ArrayConfig &cfg, const ProfileWork &work);

/** Plan a traced layer's waves with work from its measured facts. */
WavePlan planWaves(Phase phase, MappingKind mapping, int64_t batch,
                   const ArrayConfig &cfg, const TraceWork &work);

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_WAVE_PLAN_H_
