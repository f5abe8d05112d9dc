/**
 * @file
 * Persistent worker-thread pool with a parallelFor helper.
 *
 * The functional model runs orders of magnitude more MACs than the
 * hardware model, so the software kernels (src/kernels/) parallelize
 * over independent output partitions — row panels of a GEMM, output
 * channels of a sparse convolution. The pool is deliberately simple:
 * one job at a time, chunked work distribution via an atomic cursor,
 * and the submitting thread participates in execution. Because every
 * chunk writes a disjoint output range and iterates in a fixed order,
 * results are bitwise deterministic regardless of how chunks land on
 * threads.
 */

#ifndef PROCRUSTES_COMMON_THREAD_POOL_H_
#define PROCRUSTES_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace procrustes {

/** Largest pool PROCRUSTES_NUM_THREADS may request. */
inline constexpr int kMaxPoolThreads = 1024;

/**
 * Parse a PROCRUSTES_NUM_THREADS value. The whole string must be a
 * decimal integer in [1, kMaxPoolThreads]; anything else (empty, a
 * sign, trailing characters, zero, or too large) is FATAL.
 */
int parseThreadCount(const char *text);

/** Fixed-size pool of persistent worker threads. */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     *
     * @param num_threads total worker count including the submitting
     *        thread; 0 selects PROCRUSTES_NUM_THREADS from the
     *        environment (parseThreadCount), else
     *        std::thread::hardware_concurrency().
     */
    explicit ThreadPool(int num_threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads that execute chunks (workers + submitter). */
    int numThreads() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Run body(chunk_begin, chunk_end) over disjoint chunks covering
     * [begin, end). Blocks until every chunk has finished. Chunk sizes
     * are always a multiple of `grain` (callers pass their tile size so
     * boundaries never split a tile and the decomposition is identical
     * for every thread count). A nested call from inside a pool task,
     * or a submission racing another thread's submission, runs inline
     * (serially) instead of deadlocking or aborting.
     */
    void parallelFor(int64_t begin, int64_t end,
                     const std::function<void(int64_t, int64_t)> &body,
                     int64_t grain = 1);

    /** Process-wide shared pool, created on first use. */
    static ThreadPool &global();

    /**
     * Replace the process-wide pool with one of `num_threads` threads
     * (0 re-resolves PROCRUSTES_NUM_THREADS / hardware concurrency).
     * For thread-count sweeps in tests and benchmarks: the caller must
     * guarantee no kernel is mid-flight on the old pool, because any
     * reference previously obtained from global() is invalidated.
     */
    static void resetGlobal(int num_threads);

  private:
    /** One in-flight parallelFor: chunk cursor plus completion count. */
    struct Job
    {
        const std::function<void(int64_t, int64_t)> *body = nullptr;
        int64_t end = 0;
        int64_t chunk = 1;
        std::atomic<int64_t> next{0};
        std::atomic<int64_t> remaining{0};   //!< elements not yet done
    };

    void workerLoop();

    /** Claim and run chunks until the job's cursor is exhausted. */
    void runChunks(Job &job);

    std::vector<std::thread> workers_;
    std::mutex submitMu_;              //!< serializes submitters
    std::mutex mu_;
    std::condition_variable workCv_;   //!< wakes workers on a new job
    std::condition_variable doneCv_;   //!< wakes the submitter
    std::shared_ptr<Job> job_;         //!< current job, guarded by mu_
    uint64_t generation_ = 0;          //!< bumped per job, guarded by mu_
    bool stop_ = false;
};

} // namespace procrustes

#endif // PROCRUSTES_COMMON_THREAD_POOL_H_
