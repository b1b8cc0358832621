/**
 * @file
 * Paged KV-cache block pool, kept as a count.
 *
 * The KV cache is carved into fixed-size blocks of `block_size` tokens and
 * each request's `BlockTable` holds some number of them. The simulator
 * models cache capacity, not cache contents: admission control, preemption
 * and the Mooncake overflow of Section 4.2.2 depend only on how many blocks
 * are in use. So the pool is one counter of used blocks out of
 * `num_blocks`, with an all-or-nothing `acquire(n)` and a `release(n)`.
 */

#pragma once

#include <cstdint>

namespace shiftpar::kvcache {

/** Fixed-size block pool: exact occupancy, no block identities. */
class BlockAllocator
{
  public:
    /**
     * @param num_blocks Total blocks in the pool.
     * @param block_size Tokens per block (vLLM default is 16).
     */
    BlockAllocator(std::int64_t num_blocks, int block_size);

    /**
     * Take `n` blocks from the pool, all of them or none.
     *
     * @return true on success; false (pool unchanged) when fewer than `n`
     * blocks are free.
     */
    bool acquire(std::int64_t n);

    /** Return `n` blocks to the pool; releasing more than are in use is a
     *  panic. */
    void release(std::int64_t n);

    /** @return free block count. */
    std::int64_t num_free() const { return num_blocks_ - used_; }

    /** @return total block count. */
    std::int64_t num_blocks() const { return num_blocks_; }

    /** @return blocks in use. */
    std::int64_t num_used() const { return used_; }

    /** @return tokens per block. */
    int block_size() const { return block_size_; }

    /** @return blocks needed to hold `tokens` tokens. */
    std::int64_t blocks_for_tokens(std::int64_t tokens) const;

    /** @return fraction of the pool in use, in [0, 1]. */
    double utilization() const;

  private:
    std::int64_t num_blocks_;
    std::int64_t used_ = 0;
    int block_size_;
};

} // namespace shiftpar::kvcache
