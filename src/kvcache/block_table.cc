#include "kvcache/block_table.h"

#include "util/logging.h"

namespace shiftpar::kvcache {

bool
BlockTable::append_tokens(std::int64_t tokens, BlockAllocator& allocator)
{
    SP_ASSERT(tokens >= 0);
    const std::int64_t extra =
        allocator.blocks_for_tokens(num_tokens_ + tokens) - num_blocks_;
    if (!allocator.acquire(extra))
        return false;
    num_blocks_ += extra;
    num_tokens_ += tokens;
    return true;
}

void
BlockTable::release(BlockAllocator& allocator)
{
    allocator.release(num_blocks_);
    num_blocks_ = 0;
    num_tokens_ = 0;
}

} // namespace shiftpar::kvcache
