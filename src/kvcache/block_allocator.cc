#include "kvcache/block_allocator.h"

#include "util/logging.h"
#include "util/units.h"

namespace shiftpar::kvcache {

BlockAllocator::BlockAllocator(std::int64_t num_blocks, int block_size)
    : num_blocks_(num_blocks), block_size_(block_size)
{
    SP_ASSERT(num_blocks >= 0 && block_size >= 1);
}

bool
BlockAllocator::acquire(std::int64_t n)
{
    SP_ASSERT(n >= 0);
    if (n > num_free())
        return false;
    used_ += n;
    return true;
}

void
BlockAllocator::release(std::int64_t n)
{
    SP_ASSERT(n >= 0 && n <= used_, "release of ", n,
              " KV blocks exceeds the ", used_, " in use");
    used_ -= n;
}

std::int64_t
BlockAllocator::blocks_for_tokens(std::int64_t tokens) const
{
    return ceil_div(tokens, block_size_);
}

double
BlockAllocator::utilization() const
{
    return num_blocks_ == 0
               ? 0.0
               : static_cast<double>(used_) /
                     static_cast<double>(num_blocks_);
}

} // namespace shiftpar::kvcache
