/**
 * @file
 * Tests for the scheduler's running load total and its merged admission
 * pass: `outstanding_tokens()` must equal the remaining work of the live
 * requests after every kind of queue operation, and the prefill pass must
 * keep the exact chunk order of a stable priority sort over continuing
 * prefills followed by waiting requests.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/scheduler.h"
#include "kvcache/layout.h"
#include "model/presets.h"
#include "util/rng.h"

namespace shiftpar::engine {
namespace {

class SchedulerLoadTest : public ::testing::Test
{
  protected:
    explicit SchedulerLoadTest(std::int64_t capacity = 40 * 16)
        : cache_(capacity,
                 kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16)
    {
    }

    Request*
    add(RequestSpec spec)
    {
        auto r = std::make_unique<Request>();
        r->id = next_id_++;
        r->spec = spec;
        r->prefill_target = spec.prompt_tokens;
        requests_.push_back(std::move(r));
        return requests_.back().get();
    }

    /** Remaining prefill + output tokens over the live requests. */
    std::int64_t
    live_load() const
    {
        std::int64_t total = 0;
        for (const auto& r : requests_) {
            if (r->state == RequestState::kWaiting ||
                r->state == RequestState::kPrefill ||
                r->state == RequestState::kDecode) {
                total += r->prefill_remaining() +
                         (r->spec.output_tokens - r->decoded);
            }
        }
        return total;
    }

    /** Render a plan as "id:tokens{p|d}" entries in chunk order. */
    static std::string
    render(const BatchPlan& plan)
    {
        std::string out;
        for (const auto& c : plan.chunks) {
            if (!out.empty())
                out += ' ';
            out += std::to_string(c.request->id) + ":" +
                   std::to_string(c.new_tokens) +
                   (c.is_prefill ? "p" : "d");
        }
        return out;
    }

    kvcache::CacheManager cache_;
    std::vector<std::unique_ptr<Request>> requests_;
    RequestId next_id_ = 1;
};

TEST_F(SchedulerLoadTest, RunningTotalMatchesLiveRequestsUnderChurn)
{
    // A small pool (40 blocks) and a tight running cap force recompute
    // preemption and blocked admissions; shared prefixes, deadlines,
    // future arrivals and migrated-in (prefilled) requests exercise every
    // path that moves a request's progress or removes it from a queue.
    Scheduler s({.max_batched_tokens = 192, .max_running_seqs = 6}, &cache_);
    Rng rng(20261020);
    double t = 0.0;
    int cancels = 0;
    int expired = 0;
    int stolen = 0;
    int lost = 0;
    const auto check = [&](const char* op, int iter) {
        ASSERT_EQ(s.outstanding_tokens(), live_load())
            << "after " << op << " at iteration " << iter;
    };

    for (int iter = 0; iter < 3000; ++iter) {
        const double u = rng.uniform();
        if (u < 0.25) {
            RequestSpec spec;
            spec.arrival = rng.bernoulli(0.2) ? t + 0.05 : t;
            spec.prompt_tokens = rng.uniform_int(8, 200);
            spec.output_tokens = rng.uniform_int(2, 40);
            spec.priority = static_cast<int>(rng.uniform_int(0, 1));
            if (rng.bernoulli(0.4)) {
                spec.prefix_id = rng.uniform_int(1, 2);
                spec.prefix_tokens =
                    std::min<std::int64_t>(spec.prompt_tokens, 64);
            }
            if (rng.bernoulli(0.2))
                spec.deadline = t + rng.uniform(0.02, 0.3);
            Request* r = add(spec);
            if (rng.bernoulli(0.1)) {
                // Migrated in from a prefill worker.
                r->prefilled = r->prefill_target;
                r->decoded = 1;
            }
            s.enqueue(r);
            check("enqueue", iter);
        } else if (u < 0.8) {
            const BatchPlan plan = s.schedule(t);
            check("schedule", iter);
            t += 0.01;
            std::vector<Request*> finished;
            s.on_step_complete(t, plan, &finished);
            check("on_step_complete", iter);
        } else if (u < 0.87) {
            if (requests_.empty())
                continue;
            const auto pick = rng.uniform_int(
                0, static_cast<std::int64_t>(requests_.size()) - 1);
            if (s.cancel(requests_[static_cast<std::size_t>(pick)].get()))
                ++cancels;
            check("cancel", iter);
        } else if (u < 0.93) {
            expired += static_cast<int>(s.expire_due(t).size());
            check("expire_due", iter);
        } else if (u < 0.99) {
            if (s.steal_waiting(t, rng.uniform_int(50, 300)) != nullptr)
                ++stolen;
            check("steal_waiting", iter);
        } else {
            lost += static_cast<int>(s.fail_all().size());
            check("fail_all", iter);
        }
        if (HasFailure())
            return;
    }
    EXPECT_GT(s.preemption_count(), 0);
    EXPECT_GT(cancels, 0);
    EXPECT_GT(expired, 0);
    EXPECT_GT(stolen, 0);
    EXPECT_GT(lost, 0);
    EXPECT_GT(cache_.prefix_hit_tokens(), 0);
}

// ---- Admission order -------------------------------------------------------
//
// Characterization: these plans were recorded from the stable-sort
// admission pass and pin its order — higher classes first, continuing
// prefills ahead of same-class waiting requests, FCFS within a class,
// future arrivals skipped, and admission stopping at a full running set
// or a KV-blocked request while continuing prefills keep their budget.

TEST_F(SchedulerLoadTest, AdmissionOrderStopsAtRunningCap)
{
    Scheduler s({.max_batched_tokens = 128, .max_running_seqs = 3},
                &cache_);
    Request* d = add({0.0, 32, 50});
    Request* c = add({0.0, 400, 10});
    s.enqueue(d);
    s.enqueue(c);
    std::vector<Request*> finished;
    BatchPlan plan = s.schedule(0.0);
    EXPECT_EQ(render(plan), "1:32p 2:96p");
    s.on_step_complete(0.1, plan, &finished);

    RequestSpec high{0.1, 24, 5};
    high.priority = 1;
    RequestSpec future = high;
    future.arrival = 5.0;
    future.priority = 2;
    s.enqueue(add(high));         // 3
    s.enqueue(add({0.1, 16, 5}));  // 4
    s.enqueue(add(future));       // 5
    s.enqueue(add({0.1, 16, 5}));  // 6
    s.enqueue(add(high));         // 7

    std::vector<std::string> plans;
    double t = 0.1;
    for (int step = 0; step < 6; ++step) {
        plan = s.schedule(t);
        plans.push_back(render(plan));
        t += 0.1;
        s.on_step_complete(t, plan, &finished);
    }
    // 3 outranks the continuing prefill 2 and fills the running set, so
    // 4, 6 and 7 wait while 2 still takes the rest of the budget; the
    // future arrival 5 is skipped, and once 3 finishes the high-class 7
    // is admitted ahead of the earlier low-class 4.
    const std::vector<std::string> expected = {
        "1:1d 3:24p 2:103p", "1:1d 3:1d 2:126p", "1:1d 3:1d 2:75p",
        "1:1d 2:1d 3:1d",    "1:1d 2:1d 3:1d",   "1:1d 2:1d 7:24p",
    };
    EXPECT_EQ(plans, expected);
}

class SchedulerTightLoadTest : public SchedulerLoadTest
{
  protected:
    SchedulerTightLoadTest() : SchedulerLoadTest(12 * 16) {}
};

TEST_F(SchedulerTightLoadTest, AdmissionOrderStopsAtKvBlock)
{
    Scheduler s({.max_batched_tokens = 128, .max_running_seqs = 16},
                &cache_);
    Request* d = add({0.0, 32, 6});
    Request* c = add({0.0, 150, 4});
    s.enqueue(d);
    s.enqueue(c);
    std::vector<Request*> finished;
    BatchPlan plan = s.schedule(0.0);
    EXPECT_EQ(render(plan), "1:32p 2:96p");
    s.on_step_complete(0.1, plan, &finished);

    RequestSpec high{0.1, 40, 3};
    high.priority = 1;
    s.enqueue(add({0.1, 16, 3}));  // 3
    s.enqueue(add(high));         // 4
    s.enqueue(add(high));         // 5
    s.enqueue(add({0.1, 8, 3}));   // 6

    std::vector<std::string> plans;
    double t = 0.1;
    for (int step = 0; step < 10 && s.has_work(); ++step) {
        plan = s.schedule(t);
        plans.push_back(render(plan));
        t += 0.1;
        s.on_step_complete(t, plan, &finished);
    }
    // 4 takes the last free blocks ahead of the continuing prefill 2;
    // 5 is KV-blocked, so the low-class 3 and 6 are not tried. Later 2
    // (continuing) takes the freed blocks before the same-class 3, and
    // once it finishes 3 and 6 are admitted in FCFS order.
    const std::vector<std::string> expected = {
        "1:1d 4:40p", "1:1d 4:1d",      "1:1d 4:1d",      "1:1d 5:40p",
        "1:1d 5:1d",  "5:1d 2:48p",     "2:6p 3:16p 6:8p", "2:1d 3:1d",
        "2:1d 3:1d",  "2:1d 6:9p",
    };
    EXPECT_EQ(plans, expected);
}

} // namespace
} // namespace shiftpar::engine
