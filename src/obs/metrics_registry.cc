#include "obs/metrics_registry.h"

#include <algorithm>

#include "util/json.h"

namespace shiftpar::obs {

namespace {

/** Per-thread recording target installed by the sweep runner. */
thread_local MetricsRegistry* tls_override = nullptr;

/** Prometheus metric-name charset: [a-zA-Z_:], digits after the first. */
std::string
sanitize_name(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (std::size_t i = 0; i < name.size(); ++i) {
        const char c = name[i];
        const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
        const bool digit = (c >= '0' && c <= '9');
        if (alpha || c == '_' || c == ':' || (digit && i > 0))
            out.push_back(c);
        else
            out.push_back('_');
    }
    return out.empty() ? std::string("_") : out;
}

/** Render `{a="x",b="y"}` (empty string for no labels). */
std::string
render_labels(const MetricLabels& labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            out += ",";
        out += sanitize_name(labels[i].first) + "=\"" +
               util::json_escape(labels[i].second) + "\"";
    }
    out += "}";
    return out;
}

/** As render_labels but with an extra quantile label appended. */
std::string
render_labels_with_quantile(const MetricLabels& labels, const char* q)
{
    std::string out = "{";
    for (const auto& [k, v] : labels)
        out += sanitize_name(k) + "=\"" + util::json_escape(v) + "\",";
    out += std::string("quantile=\"") + q + "\"}";
    return out;
}

} // namespace

MetricsRegistry::Key
MetricsRegistry::make_key(const std::string& name, const MetricLabels& labels)
{
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    return {name, std::move(sorted)};
}

void
MetricsRegistry::counter_add(const std::string& name, std::int64_t delta,
                             const MetricLabels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[make_key(name, labels)] += delta;
}

void
MetricsRegistry::gauge_set(const std::string& name, double value,
                           const MetricLabels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[make_key(name, labels)] = value;
}

void
MetricsRegistry::gauge_max(const std::string& name, double value,
                           const MetricLabels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = gauges_.emplace(make_key(name, labels), value);
    if (!inserted)
        it->second = std::max(it->second, value);
}

void
MetricsRegistry::observe(const std::string& name, double value,
                         const MetricLabels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    histograms_[make_key(name, labels)].add(value);
}

void
MetricsRegistry::merge_from(const MetricsRegistry& other)
{
    if (&other == this)
        return;
    // Copy under the source lock, fold under ours; never hold both (fixed
    // acquisition order would also work, but sweep merges are rare enough
    // that the copy is cheaper than reasoning about lock ordering).
    decltype(counters_) counters;
    decltype(gauges_) gauges;
    decltype(histograms_) histograms;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        counters = other.counters_;
        gauges = other.gauges_;
        histograms = other.histograms_;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, value] : counters)
        counters_[key] += value;
    for (const auto& [key, value] : gauges) {
        auto [it, inserted] = gauges_.emplace(key, value);
        if (!inserted)
            it->second = std::max(it->second, value);
    }
    for (const auto& [key, hist] : histograms) {
        auto it = histograms_.find(key);
        if (it == histograms_.end())
            histograms_.emplace(key, hist);
        else
            it->second.merge(hist);
    }
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [key, value] : counters_)
        snap.counters.push_back({key.first, key.second, value});
    snap.gauges.reserve(gauges_.size());
    for (const auto& [key, value] : gauges_)
        snap.gauges.push_back({key.first, key.second, value});
    snap.histograms.reserve(histograms_.size());
    for (const auto& [key, hist] : histograms_)
        snap.histograms.push_back({hist.summary(), key.first, key.second});
    return snap;
}

void
MetricsRegistry::write_prometheus(std::ostream& os) const
{
    obs::write_prometheus(snapshot(), os);
}

MetricsRegistry&
MetricsRegistry::global()
{
    // Leaky singleton, deliberately: the registry is reached from atexit
    // handlers (bench_common's --metrics-out flush) and other statics
    // whose destruction order against a function-local static is
    // unknowable. A function-local `static MetricsRegistry` would be
    // destroyed in reverse construction order and any later access — an
    // atexit handler registered before the first global() call, a static
    // destructor in another TU — would touch a dead object. The heap
    // instance is immortal (and stays LSan-reachable through this
    // pointer), so registry access is valid at any point in process
    // teardown. Pinned by tests/obs/test_metrics_registry.cc's
    // atexit-handler regression test.
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
}

MetricsRegistry&
MetricsRegistry::current()
{
    return tls_override ? *tls_override : global();
}

MetricsRegistry*
MetricsRegistry::set_thread_override(MetricsRegistry* registry)
{
    MetricsRegistry* previous = tls_override;
    tls_override = registry;
    return previous;
}

void
write_prometheus(const MetricsSnapshot& snap, std::ostream& os)
{
    // Snapshot vectors arrive sorted by (name, labels); `# TYPE` headers
    // are emitted once per metric name as the name changes.
    const std::string* last = nullptr;
    for (const auto& c : snap.counters) {
        const std::string name = sanitize_name(c.name);
        if (!last || *last != c.name)
            os << "# TYPE " << name << " counter\n";
        last = &c.name;
        os << name << render_labels(c.labels) << " " << c.value << "\n";
    }
    last = nullptr;
    for (const auto& g : snap.gauges) {
        const std::string name = sanitize_name(g.name);
        if (!last || *last != g.name)
            os << "# TYPE " << name << " gauge\n";
        last = &g.name;
        os << name << render_labels(g.labels) << " "
           << util::json_number(g.value) << "\n";
    }
    last = nullptr;
    for (const auto& h : snap.histograms) {
        const std::string name = sanitize_name(h.name);
        if (!last || *last != h.name)
            os << "# TYPE " << name << " summary\n";
        last = &h.name;
        os << name << render_labels_with_quantile(h.labels, "0.5") << " "
           << util::json_number(h.p50) << "\n";
        os << name << render_labels_with_quantile(h.labels, "0.9") << " "
           << util::json_number(h.p90) << "\n";
        os << name << render_labels_with_quantile(h.labels, "0.99") << " "
           << util::json_number(h.p99) << "\n";
        os << name << "_sum" << render_labels(h.labels) << " "
           << util::json_number(h.sum) << "\n";
        os << name << "_count" << render_labels(h.labels) << " " << h.count
           << "\n";
    }
}

} // namespace shiftpar::obs
