/**
 * @file
 * Snapshot substrate: the Snapshottable contract plus the state
 * tapes it serializes through.
 *
 * A snapshot is two tapes:
 *
 *  - a **byte tape** of trivially-copyable values (counters, clocks,
 *    heap keys, histogram buckets). Every value carries a one-byte
 *    type tag so a reader that drifts out of phase with its writer
 *    panics at the first misaligned field instead of silently
 *    reinterpreting garbage;
 *  - a **box tape** of shared_ptr-held live objects for state that
 *    cannot be flattened to bytes — cloned event callbacks and
 *    deep-cloned in-flight bios. Boxes are immutable once written:
 *    every restore *clones out of* the box again, so one snapshot
 *    can be restored any number of times (that is what makes
 *    Host::branch() cheap — branches share the snapshot, never
 *    mutate it).
 *
 * The contract is positional, like the kernel's own suspend images,
 * so each layer lists its state once, in one walk that both
 * directions run:
 *
 *     template <typename Self, typename Tape>
 *     static void walk(Self &self, Tape &t)
 *     {
 *         t.value(self.count_);
 *         t.template size<uint32_t>(self.slots_);
 *         for (auto &s : self.slots_)
 *             t.sub(s.latency);
 *     }
 *
 * saveState() runs it as walk(*this, w) and loadState() as
 * walk(*this, r). StateWriter and StateReader share every verb name
 * (value, string, pods, rng, sub, size, same, optional, callback),
 * the writer appending and the reader restoring in place, so the two
 * directions cannot drift apart. When saving, Self is const, so the
 * compiler still checks that taking a snapshot never perturbs the
 * simulation (determinism depends on it). The few steps that run in
 * one direction only (a reader destroying old state before it
 * rebuilds, a check before saving) test Tape::kLoading.
 */

#ifndef IOCOST_SIM_STATE_HH
#define IOCOST_SIM_STATE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace iocost::sim {

/** One serialized snapshot: byte tape plus box tape. */
struct StateImage
{
    std::vector<unsigned char> bytes;
    std::vector<std::shared_ptr<const void>> boxes;

    /** Flat size of the byte tape (the tracked bytes-per-host
     *  metric; boxed objects are counted separately). */
    size_t byteSize() const { return bytes.size(); }
    size_t boxCount() const { return boxes.size(); }
};

/**
 * Sequential writer building a StateImage.
 *
 * Its verbs mirror StateReader's name for name, so one walk lists a
 * layer's state for both directions (see the file comment).
 */
class StateWriter
{
  public:
    /** False: walks test this for their one-direction steps. */
    static constexpr bool kLoading = false;

    /** Append one trivially-copyable value. */
    template <typename T>
    void
    value(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "value() is for trivially-copyable values");
        tag(podTag<T>());
        raw(&v, sizeof(T));
    }

    /** Append a length-prefixed string. */
    void
    string(std::string_view s)
    {
        tag(kTagString);
        const uint64_t n = s.size();
        raw(&n, sizeof(n));
        raw(s.data(), s.size());
    }

    /** Append a length-prefixed array of trivially-copyable
     *  elements. */
    template <typename T>
    void
    pods(const std::vector<T> &v)
    {
        pods(v.data(), v.size());
    }

    /** Append @p n elements at @p p as a length-prefixed array; the
     *  reader copies them back to a span of the same length. */
    template <typename T>
    void
    pods(const T *p, uint64_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pods() is for trivially-copyable element "
                      "types");
        tag(kTagArray);
        tag(podTag<T>());
        raw(&n, sizeof(n));
        raw(p, n * sizeof(T));
    }

    /** Append an RNG's four state words. */
    void
    rng(const Rng &g)
    {
        uint64_t s[4];
        g.getState(s);
        for (uint64_t word : s)
            value(word);
    }

    /** Append a nested layer's state (its saveState()). */
    template <typename T>
    void
    sub(const T &x)
    {
        x.saveState(*this);
    }

    /** Append a container's element count as an N; the reader
     *  resizes to it. */
    template <typename N, typename C>
    void
    size(const C &c)
    {
        value(static_cast<N>(c.size()));
    }

    /** Append a structural count or flag that a restore must find
     *  unchanged; the reader panics with the message otherwise. */
    template <typename N>
    void
    same(N n, const char * /* mismatch */)
    {
        value(n);
    }

    /** Append an optional layer's presence flag, then its state. */
    template <typename T>
    void
    optional(const std::optional<T> &o, const char * /* mismatch */)
    {
        value(o.has_value());
        if (o)
            sub(*o);
    }

    /** Box a clone of a cloneable callback when @p present. */
    template <typename F>
    void
    callback(const F &fn, bool present)
    {
        if (present)
            putBox(std::make_shared<const F>(fn.clone()));
    }

    /** Append a boxed live object (cloned callback, cloned bio). */
    void
    putBox(std::shared_ptr<const void> box)
    {
        tag(kTagBox);
        img_.boxes.push_back(std::move(box));
    }

    /** Hand over the finished image. */
    StateImage finish() && { return std::move(img_); }

  private:
    friend class StateReader;

    /** Type tags: pods encode their size so a misaligned reader
     *  trips immediately; containers get distinct markers. */
    static constexpr unsigned char kTagString = 0x01;
    static constexpr unsigned char kTagArray = 0x02;
    static constexpr unsigned char kTagBox = 0x03;

    template <typename T>
    static constexpr unsigned char
    podTag()
    {
        return static_cast<unsigned char>(0x40 +
                                          (sizeof(T) & 0x3F));
    }

    void tag(unsigned char t) { img_.bytes.push_back(t); }

    void
    raw(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        img_.bytes.insert(img_.bytes.end(), b, b + n);
    }

    StateImage img_;
};

/**
 * Sequential reader over a StateImage. Reads must mirror the writes
 * exactly; any divergence panics (a snapshot format bug, never a
 * user error).
 */
class StateReader
{
  public:
    /** True: walks test this for their one-direction steps. */
    static constexpr bool kLoading = true;

    explicit StateReader(const StateImage &img) : img_(&img) {}

    template <typename T>
    void
    value(T &out)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "value() is for trivially-copyable values");
        expect(StateWriter::podTag<T>(), "pod");
        copyOut(&out, sizeof(T));
    }

    void
    string(std::string &out)
    {
        expect(StateWriter::kTagString, "string");
        uint64_t n = 0;
        copyOut(&n, sizeof(n));
        checkAvail(n);
        out.assign(reinterpret_cast<const char *>(
                       img_->bytes.data() + pos_),
                   n);
        pos_ += n;
    }

    template <typename T>
    void
    pods(std::vector<T> &out)
    {
        const uint64_t n = arrayLength<T>();
        checkAvail(n * sizeof(T));
        out.resize(n);
        if (n > 0)
            copyOut(out.data(), n * sizeof(T));
    }

    /** Copy the next array into the @p n elements at @p out; the
     *  writer must have stored exactly @p n. */
    template <typename T>
    void
    pods(T *out, uint64_t n)
    {
        panicIf(arrayLength<T>() != n,
                "snapshot array length differs from its span");
        if (n > 0)
            copyOut(out, n * sizeof(T));
    }

    void
    rng(Rng &g)
    {
        uint64_t s[4];
        for (uint64_t &word : s)
            value(word);
        g.setState(s);
    }

    template <typename T>
    void
    sub(T &x)
    {
        x.loadState(*this);
    }

    template <typename N, typename C>
    void
    size(C &c)
    {
        N n{};
        value(n);
        c.resize(n);
    }

    template <typename N>
    void
    same(N n, const char *mismatch)
    {
        N saved{};
        value(saved);
        panicIf(saved != n, mismatch);
    }

    /** A present layer must exist here too (else @p mismatch); an
     *  absent one leaves this side's untouched. */
    template <typename T>
    void
    optional(std::optional<T> &o, const char *mismatch)
    {
        bool present = false;
        value(present);
        if (present) {
            panicIf(!o.has_value(), mismatch);
            sub(*o);
        }
    }

    /** Clone the next boxed callback into @p fn when @p present;
     *  otherwise empty it. */
    template <typename F>
    void
    callback(F &fn, bool present)
    {
        if (present)
            fn = getBoxAs<F>()->clone();
        else
            fn.reset();
    }

    /** Next box, cast to the type the writer stored. */
    template <typename T>
    std::shared_ptr<const T>
    getBoxAs()
    {
        expect(StateWriter::kTagBox, "box");
        panicIf(boxPos_ >= img_->boxes.size(),
                "snapshot box tape exhausted");
        return std::static_pointer_cast<const T>(
            img_->boxes[boxPos_++]);
    }

    /** True when both tapes are fully consumed. */
    bool
    atEnd() const
    {
        return pos_ == img_->bytes.size() &&
               boxPos_ == img_->boxes.size();
    }

  private:
    /** Check an array's tags and read its element count. */
    template <typename T>
    uint64_t
    arrayLength()
    {
        expect(StateWriter::kTagArray, "array");
        expect(StateWriter::podTag<T>(), "array element");
        uint64_t n = 0;
        copyOut(&n, sizeof(n));
        return n;
    }

    void
    expect(unsigned char t, const char *what)
    {
        checkAvail(1);
        const unsigned char got = img_->bytes[pos_++];
        if (got != t) {
            panic(std::string("snapshot tape mismatch reading ") +
                  what + ": writer and reader are out of phase");
        }
    }

    void
    checkAvail(uint64_t n)
    {
        panicIf(pos_ + n > img_->bytes.size(),
                "snapshot byte tape exhausted");
    }

    void
    copyOut(void *out, size_t n)
    {
        checkAvail(n);
        std::memcpy(out, img_->bytes.data() + pos_, n);
        pos_ += n;
    }

    const StateImage *img_;
    size_t pos_ = 0;
    size_t boxPos_ = 0;
};

/**
 * The snapshot contract every mutable-state layer implements.
 *
 * Implementations forward both functions to one static walk over
 * their state (see the file comment). Layers never held through a
 * base pointer (simulator, event queue, timers, fault injector,
 * cgroup tree, block layer, stat windows) have the same two
 * functions without the base, and Host::snapshot()/restore() run
 * the host's walk.
 *
 * loadState() restores *in place*: the object keeps its identity
 * (address, wiring to neighbors) and only its mutable state rolls
 * back. That is what lets event callbacks capture raw `this`
 * pointers and survive a restore — the pointers stay valid because
 * the objects never move.
 */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;

    /** Serialize all mutable state. Must not perturb the object. */
    virtual void saveState(StateWriter &w) const = 0;

    /** Restore state previously written by saveState(). */
    virtual void loadState(StateReader &r) = 0;
};

} // namespace iocost::sim

#endif // IOCOST_SIM_STATE_HH
