/** @file Shared fixtures for engine/core tests: a tiny fast model + node. */

#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "engine/engine.h"
#include "hw/presets.h"
#include "model/model_config.h"
#include "sim/cluster.h"

namespace shiftpar::testing {

/** A small 8-head model so engine steps are cheap and numbers are tidy. */
inline model::ModelConfig
tiny_model()
{
    model::ModelConfig m;
    m.name = "tiny-1B";
    m.num_layers = 8;
    m.hidden_size = 1024;
    m.q_heads = 8;
    m.kv_heads = 8;
    m.head_dim = 128;
    m.intermediate_size = 4096;
    m.vocab_size = 32000;
    m.weight_dtype = model::DType::kFp8;
    m.validate();
    return m;
}

/** The standard 8-GPU test node. */
inline hw::Node
test_node()
{
    return hw::h200_node();
}

/** Default engine config over the whole node as TP=8. */
inline engine::EngineConfig
tp8_engine_config()
{
    engine::EngineConfig cfg;
    cfg.base = {1, 8};
    return cfg;
}

/** Build an engine with a fixed policy over its base config. */
inline std::unique_ptr<engine::Engine>
make_engine(const model::ModelConfig& m, engine::EngineConfig cfg)
{
    return std::make_unique<engine::Engine>(
        test_node(), m, cfg,
        std::make_unique<engine::FixedPolicy>(cfg.base));
}

/** A mid-run client action for `run_on_cluster`. */
struct TimedAction
{
    double at;                  ///< simulated time the action fires at
    std::function<void()> fire;
};

/**
 * Run `engines` (work already submitted) on one `sim::Cluster` until
 * every engine is idle. Each action fires as a cluster event at its time
 * — after every step that starts before it, before any step that starts
 * at it — once each engine's clock has been advanced to that time. Adds
 * a test failure when an engine is left holding work it cannot schedule
 * (a KV-cache deadlock).
 */
inline void
run_on_cluster(const std::vector<engine::Engine*>& engines,
               std::vector<TimedAction> actions = {})
{
    sim::Cluster cluster;
    for (engine::Engine* e : engines)
        cluster.add(e);
    for (const TimedAction& a : actions) {
        cluster.post(a.at, [&engines, &a] {
            for (engine::Engine* e : engines)
                e->advance_clock_to(a.at);
            a.fire();
        });
    }
    cluster.run();
    for (std::size_t i = 0; i < engines.size(); ++i) {
        EXPECT_FALSE(engines[i]->has_work())
            << "engine " << i << " ended the run with unfinished requests";
    }
}

/** Single-engine `run_on_cluster`. */
inline void
run_on_cluster(engine::Engine& e, std::vector<TimedAction> actions = {})
{
    run_on_cluster(std::vector<engine::Engine*>{&e}, std::move(actions));
}

} // namespace shiftpar::testing
