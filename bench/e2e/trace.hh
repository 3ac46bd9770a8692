/**
 * @file
 * Outside-in layer tracing for the end-to-end benchmark.
 *
 * The benchmark measures the simulator's layers from the outside: it
 * times calls into their public interfaces. Two decorators do that
 * for a single host — TimedDevice around a blk::BlockDevice and
 * TimedController around a blk::IoController — and the workload
 * code opens spans around everything else it calls (a simulated
 * step, a what-if query, a fleet host-day).
 *
 * Every span adds into per-kind count/total/self accumulators. A
 * span's self time is its duration minus the time its direct child
 * spans cover, so the root step span's self time is the part of a
 * run no decorator can see: event queue, workload generators, the
 * iocost planning timer, the page cache. Raw spans are kept only for
 * sampled requests, in a buffer sized once at construction, and are
 * written out at exit in Chrome trace-event format.
 */

#ifndef IOCOST_BENCH_E2E_TRACE_HH
#define IOCOST_BENCH_E2E_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "blk/io_controller.hh"

namespace iocost::e2e {

/** What a span measures. Root kinds (Step, Query, Branch, HostDay)
 *  are always kept raw; the others only for sampled request ids. */
enum class SpanKind : uint8_t
{
    Step,        ///< one Simulator::runUntil call (a simulated step)
    DevSubmit,   ///< BlockDevice::submit
    DevComplete, ///< device -> block layer completion delivery
    CtlSubmit,   ///< IoController::onSubmit
    CtlComplete, ///< IoController::onComplete
    CtlOther,    ///< the remaining IoController virtuals
    Query,       ///< one what-if query, submit to answer
    Branch,      ///< one whatif::Replica::branch call
    HostDay,     ///< one FleetSim::runHostDay call
    kCount,
};

inline const char *
spanName(SpanKind k)
{
    static constexpr const char *kNames[] = {
        "sim.step",        "device.submit",   "blk.complete",
        "core.on_submit",  "core.on_complete", "core.other",
        "whatif.query",    "whatif.branch",    "fleet.hostday"};
    return kNames[static_cast<size_t>(k)];
}

/** Accumulated cost of one span kind. */
struct SpanTotals
{
    uint64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

/**
 * The span recorder. Single-threaded: one Tracer per thread that
 * opens spans (the decorators run on the simulator's thread).
 */
class Tracer
{
  public:
    /**
     * @param raw_capacity Raw spans kept for the Chrome trace; the
     *        buffer is reserved here and never grows.
     * @param sample_every Keep raw spans of non-root kinds whose
     *        request id is a multiple of this.
     */
    Tracer(size_t raw_capacity, uint64_t sample_every)
        : sampleEvery_(sample_every == 0 ? 1 : sample_every),
          epoch_(Clock::now())
    {
        raw_.reserve(raw_capacity);
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void
    begin(SpanKind kind, uint64_t req)
    {
        Frame &f = stack_[depth_++];
        f.kind = kind;
        f.req = req;
        f.childNs = 0;
        f.raw = keepRaw(kind, req,
                        depth_ > 1 ? stack_[depth_ - 2].raw : -1);
        f.start = nowNs();
        if (f.raw >= 0)
            raw_[static_cast<size_t>(f.raw)].startNs = f.start;
    }

    void
    end()
    {
        const int64_t t = nowNs();
        Frame &f = stack_[--depth_];
        const int64_t dur = t - f.start;
        SpanTotals &tot = totals_[static_cast<size_t>(f.kind)];
        ++tot.count;
        tot.totalNs += dur;
        tot.selfNs += dur - f.childNs;
        if (depth_ > 0)
            stack_[depth_ - 1].childNs += dur;
        if (f.raw >= 0)
            raw_[static_cast<size_t>(f.raw)].endNs = t;
    }

    /**
     * Record a finished span that did not nest on this thread's
     * stack (what-if queries overlap in flight). It has no children,
     * so its self time is its duration.
     */
    void
    complete(SpanKind kind, uint64_t req, int64_t start_ns,
             int64_t end_ns)
    {
        SpanTotals &tot = totals_[static_cast<size_t>(kind)];
        ++tot.count;
        tot.totalNs += end_ns - start_ns;
        tot.selfNs += end_ns - start_ns;
        const int32_t raw = keepRaw(kind, req, -1);
        if (raw >= 0) {
            raw_[static_cast<size_t>(raw)].startNs = start_ns;
            raw_[static_cast<size_t>(raw)].endNs = end_ns;
        }
    }

    /** Nanoseconds since the tracer was built (span time base). */
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    const SpanTotals &
    totals(SpanKind k) const
    {
        return totals_[static_cast<size_t>(k)];
    }

    /** Zero the accumulators (raw spans are kept). */
    void resetTotals() { totals_ = {}; }

    /** Raw spans that did not fit in the buffer. */
    uint64_t dropped() const { return dropped_; }

    /**
     * Write the raw spans as Chrome trace events ("X" complete
     * events, microsecond timestamps; args carry the request id and
     * the parent span's index in the file, -1 for none).
     * @return false when the file cannot be written.
     */
    bool
    writeChromeTrace(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
        for (size_t i = 0; i < raw_.size(); ++i) {
            const RawSpan &s = raw_[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                "\"req\":%llu,\"parent\":%d}}\n",
                i ? "," : "", spanName(s.kind), s.startNs / 1e3,
                (s.endNs - s.startNs) / 1e3, i,
                static_cast<unsigned long long>(s.req), s.parent);
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Frame
    {
        SpanKind kind = SpanKind::Step;
        uint64_t req = 0;
        int64_t start = 0;
        int64_t childNs = 0;
        int32_t raw = -1;
    };

    struct RawSpan
    {
        SpanKind kind;
        uint64_t req;
        int64_t startNs;
        int64_t endNs;
        int32_t parent;
    };

    /** Reserve a raw slot for a sampled span; -1 when not kept. */
    int32_t
    keepRaw(SpanKind kind, uint64_t req, int32_t parent)
    {
        const bool root = kind == SpanKind::Step ||
                          kind == SpanKind::Query ||
                          kind == SpanKind::Branch ||
                          kind == SpanKind::HostDay;
        if (!root && req % sampleEvery_ != 0)
            return -1;
        if (raw_.size() == raw_.capacity()) {
            ++dropped_;
            return -1;
        }
        raw_.push_back(RawSpan{kind, req, 0, 0, parent});
        return static_cast<int32_t>(raw_.size() - 1);
    }

    /** Deepest nesting: step > completion > submit chains re-enter
     *  the layer a handful of times at most. */
    static constexpr size_t kMaxDepth = 64;

    uint64_t sampleEvery_;
    Clock::time_point epoch_;
    std::array<Frame, kMaxDepth> stack_{};
    size_t depth_ = 0;
    std::array<SpanTotals, static_cast<size_t>(SpanKind::kCount)>
        totals_{};
    std::vector<RawSpan> raw_;
    uint64_t dropped_ = 0;
};

/** RAII span; a null tracer makes it a no-op. */
class Span
{
  public:
    Span(Tracer *t, SpanKind kind, uint64_t req) : t_(t)
    {
        if (t_)
            t_->begin(kind, req);
    }
    ~Span()
    {
        if (t_)
            t_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

/**
 * Times a device from outside: submit() and the completion the
 * device delivers to the block layer. Counts submit attempts,
 * acceptances and accepted writeback bios.
 *
 * Only the virtual surface is forwarded. The fault injector,
 * telemetry handle and service log are non-virtual setters that land
 * on this wrapper, so it is for hosts that use none of them.
 */
class TimedDevice : public blk::BlockDevice
{
  public:
    TimedDevice(std::unique_ptr<blk::BlockDevice> inner, Tracer &t)
        : inner_(std::move(inner)), t_(t)
    {
        inner_->setCompletionFn([this](blk::BioPtr bio,
                                       sim::Time latency) {
            Span s(&t_, SpanKind::DevComplete, bio->id);
            finish(std::move(bio), latency);
        });
    }

    bool
    submit(blk::BioPtr &bio) override
    {
        Span s(&t_, SpanKind::DevSubmit, bio->id);
        ++attempts_;
        const bool wb = bio->wb;
        const bool ok = inner_->submit(bio);
        accepted_ += ok;
        wbAccepted_ += ok && wb;
        return ok;
    }

    uint32_t queueDepth() const override { return inner_->queueDepth(); }
    uint32_t inFlight() const override { return inner_->inFlight(); }
    std::string modelName() const override { return inner_->modelName(); }

    void
    saveState(sim::StateWriter &w) const override
    {
        inner_->saveState(w);
    }

    void loadState(sim::StateReader &r) override { inner_->loadState(r); }

    uint64_t attempts() const { return attempts_; }
    uint64_t accepted() const { return accepted_; }
    uint64_t wbAccepted() const { return wbAccepted_; }

  private:
    std::unique_ptr<blk::BlockDevice> inner_;
    Tracer &t_;
    uint64_t attempts_ = 0;
    uint64_t accepted_ = 0;
    uint64_t wbAccepted_ = 0;
};

/** Times an IO controller from outside; forwards every virtual. */
class TimedController : public blk::IoController
{
  public:
    TimedController(std::unique_ptr<blk::IoController> inner,
                    Tracer &t)
        : inner_(std::move(inner)), t_(t)
    {}

    blk::ControllerCaps caps() const override { return inner_->caps(); }

    void
    onSubmit(blk::BioPtr bio) override
    {
        Span s(&t_, SpanKind::CtlSubmit, bio->id);
        inner_->onSubmit(std::move(bio));
    }

    void
    onComplete(const blk::Bio &bio,
               const blk::CompletionInfo &info) override
    {
        Span s(&t_, SpanKind::CtlComplete, bio.id);
        inner_->onComplete(bio, info);
    }

    void
    onError(const blk::Bio &bio, const blk::CompletionInfo &info) override
    {
        Span s(&t_, SpanKind::CtlOther, bio.id);
        inner_->onError(bio, info);
    }

    sim::Time
    userspaceDelay(cgroup::CgroupId cg) override
    {
        Span s(&t_, SpanKind::CtlOther, cg);
        return inner_->userspaceDelay(cg);
    }

    sim::Time issueCpuCost() const override { return inner_->issueCpuCost(); }

    void
    attach(blk::BlockLayer &layer) override
    {
        blk::IoController::attach(layer);
        inner_->attach(layer);
    }

    void saveState(sim::StateWriter &w) const override { inner_->saveState(w); }
    void loadState(sim::StateReader &r) override { inner_->loadState(r); }

  private:
    std::unique_ptr<blk::IoController> inner_;
    Tracer &t_;
};

} // namespace iocost::e2e

#endif // IOCOST_BENCH_E2E_TRACE_HH
