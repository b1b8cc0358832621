/**
 * @file
 * Trace file I/O: load and save request traces as CSV.
 *
 * Format (header required):
 *     arrival_s,prompt_tokens,output_tokens
 *     0.000,4096,250
 *
 * This is the bridge to the paper's artifact: the cleaned Azure/Mooncake
 * traces published at the paper's Zenodo DOI can be converted to this
 * format and replayed with `examples/trace_replay`; the synthetic
 * generators can be exported for inspection with `save_trace`.
 */

#pragma once

#include <string>
#include <vector>

#include "engine/request.h"

namespace shiftpar::workload {

/**
 * Load a trace CSV.
 *
 * Lines are validated: the arrival must be a finite number >= 0 and the
 * token counts integers in [1, 2^53], each field parsed whole (trailing
 * garbage is an error). Malformed input is fatal with `file:line`.
 * Requests are returned sorted by arrival.
 */
std::vector<engine::RequestSpec> load_trace(const std::string& path);

/** Save a trace CSV (creates parent directories). */
void save_trace(const std::string& path,
                const std::vector<engine::RequestSpec>& reqs);

} // namespace shiftpar::workload
