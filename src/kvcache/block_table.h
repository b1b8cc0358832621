/**
 * @file
 * Per-request block table: how many tokens one sequence has cached and how
 * many pool blocks hold them.
 */

#pragma once

#include <cstdint>

#include "kvcache/block_allocator.h"

namespace shiftpar::kvcache {

/**
 * Counts the blocks backing one sequence's KV cache.
 *
 * Growth is all-or-nothing: `append_tokens` either acquires every block the
 * new tokens need or acquires none (so a failed admission leaves the pool
 * unchanged and the request can be retried or preempted cleanly).
 */
class BlockTable
{
  public:
    /**
     * Extend the sequence by `tokens` tokens, acquiring blocks on demand.
     *
     * @return true on success; false (with no acquisition) when the pool
     * cannot supply the required blocks.
     */
    bool append_tokens(std::int64_t tokens, BlockAllocator& allocator);

    /** Release all blocks back to `allocator` and reset to empty. */
    void release(BlockAllocator& allocator);

    /** @return tokens currently stored. */
    std::int64_t num_tokens() const { return num_tokens_; }

    /** @return blocks currently held. */
    std::int64_t num_blocks() const { return num_blocks_; }

  private:
    std::int64_t num_tokens_ = 0;
    std::int64_t num_blocks_ = 0;
};

} // namespace shiftpar::kvcache
