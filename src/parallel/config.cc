#include "parallel/config.h"

#include <sstream>

#include "util/logging.h"

namespace shiftpar::parallel {

std::string
ParallelConfig::to_string() const
{
    std::ostringstream os;
    os << "(SP=" << sp << ",TP=" << tp;
    if (ep > 1)
        os << ",EP=" << ep;
    os << ")";
    return os.str();
}

int
kv_replication(const model::ModelConfig& m, const ParallelConfig& cfg)
{
    const int g = cfg.world();
    if (g <= m.kv_heads)
        return 1;
    return g / m.kv_heads;
}

std::string
validate_config(const model::ModelConfig& m, const ParallelConfig& cfg)
{
    // Messages are built only on failure: this runs on every step, and a
    // valid config must cost no allocation.
    using detail::concat;
    if (cfg.sp < 1 || cfg.tp < 1)
        return concat("parallel degrees must be >= 1, got ",
                      cfg.to_string());
    const int g = cfg.world();
    if (m.q_heads % g != 0) {
        return concat(m.name, ": ", m.q_heads,
                      " query heads are not divisible across ", g,
                      " ranks");
    }
    if (g <= m.kv_heads) {
        if (m.kv_heads % g != 0) {
            return concat(m.name, ": ", m.kv_heads,
                          " KV heads are not divisible across ", g,
                          " ranks");
        }
    } else if (g % m.kv_heads != 0) {
        return concat(m.name, ": cannot replicate ", m.kv_heads,
                      " KV heads evenly onto ", g, " ranks");
    }
    if (cfg.ep < 1)
        return concat("EP degree must be >= 1, got ", cfg.ep);
    if (cfg.ep > 1) {
        if (!m.is_moe())
            return concat(m.name, ": EP requires a mixture-of-experts model");
        if (g % cfg.ep != 0) {
            return concat(m.name, ": EP=", cfg.ep,
                          " does not divide the group of ", g, " ranks");
        }
        if (m.num_experts % cfg.ep != 0) {
            return concat(m.name, ": ", m.num_experts,
                          " experts are not divisible across EP=", cfg.ep);
        }
    }
    return {};
}

void
validate_config_or_die(const model::ModelConfig& m, const ParallelConfig& cfg)
{
    const std::string err = validate_config(m, cfg);
    if (!err.empty())
        fatal("invalid parallel config " + cfg.to_string() + ": " + err);
}

} // namespace shiftpar::parallel
