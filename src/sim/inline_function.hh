/**
 * @file
 * Small-buffer-optimized move-only function for the simulation hot
 * paths.
 *
 * The event queue schedules tens of millions of callbacks per run
 * and the block layer delivers one completion callback per bio;
 * `std::function` pays a heap allocation for any capture larger than
 * its (small) internal buffer plus RTTI-driven dispatch, and forces
 * every capture to be copyable. InlineFunction<Sig, N> stores
 * callables up to N bytes and pointer alignment directly in the
 * object (N + 8 bytes in all) — enough for every lambda the
 * simulator schedules or completes (a couple of pointers and a few
 * scalars) — and only falls back to the heap for oversized or
 * over-aligned captures. Dispatch is two function-pointer tables, no
 * RTTI, no exception machinery.
 *
 * Move-only by design: events fire exactly once and a bio completes
 * exactly once, so copying a callback is always a bug (it was also
 * the seed kernel's main per-event cost, see EventQueue::step()).
 * The one deliberate exception is clone(), the snapshot path: a
 * held callable whose capture is copy-constructible can be
 * duplicated into a snapshot image, and restoring clones it back.
 * Callables with move-only captures report cloneable() == false and
 * make the enclosing component non-snapshottable.
 */

#ifndef IOCOST_SIM_INLINE_FUNCTION_HH
#define IOCOST_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

namespace iocost::sim {

template <typename Sig, std::size_t N = 48>
class InlineFunction; // primary template: specialized on signatures

/**
 * Type-erased R(Args...) callable with N bytes of inline storage.
 *
 * Invoking an empty InlineFunction is undefined (like std::function
 * it would be a kernel bug; the event queue never does).
 */
template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N>
{
  public:
    /** Captures up to this many bytes are stored without allocating. */
    static constexpr std::size_t kInlineBytes = N;

    /**
     * Alignment of the inline buffer: a pointer's, so the wrapper is
     * N + 8 bytes with no padding (an InlineCallback is 56 bytes and
     * an event slot one 64-byte line). A callable that needs more
     * alignment than a pointer takes the heap path.
     */
    static constexpr std::size_t kInlineAlign = alignof(void *);

    InlineFunction() = default;

    /** Empty, like a default-constructed one (std::function compat). */
    InlineFunction(std::nullptr_t) {} // NOLINT: implicit by design

    /** Wrap any R(Args...) callable. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineFunction(F &&fn) // NOLINT: implicit like std::function
    {
        emplace(std::forward<F>(fn));
    }

    /**
     * Assign a callable in place — no intermediate InlineFunction,
     * so the hot scheduling path constructs the capture directly in
     * its final storage (the event slot, the bio) instead of
     * relocating it through a temporary.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineFunction &
    operator=(F &&fn)
    {
        reset();
        emplace(std::forward<F>(fn));
        return *this;
    }

    /** Drop the held callable (std::function compat). */
    InlineFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    InlineFunction(InlineFunction &&other) noexcept
        : vtable_(other.vtable_)
    {
        if (vtable_) {
            vtable_->relocate(storage_, other.storage_);
            other.vtable_ = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            vtable_ = other.vtable_;
            if (vtable_) {
                vtable_->relocate(storage_, other.storage_);
                other.vtable_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Destroy the held callable, leaving the wrapper empty. */
    void
    reset()
    {
        if (vtable_) {
            vtable_->destroy(storage_);
            vtable_ = nullptr;
        }
    }

    /** Invoke; requires a held callable. */
    R
    operator()(Args... args)
    {
        return vtable_->invoke(storage_,
                               std::forward<Args>(args)...);
    }

    /**
     * Move the callable out of the wrapper, then invoke it — a
     * single dispatch instead of relocate+invoke+destroy. The
     * wrapper is empty and its storage reusable *before* the
     * callable runs, so the event queue can recycle the slot and the
     * callable can safely reschedule into it (even if the slot pool
     * reallocates underneath). Requires a held callable.
     */
    R
    consumeInvoke(Args... args)
    {
        const VTable *vt = vtable_;
        vtable_ = nullptr;
        return vt->consume(storage_, std::forward<Args>(args)...);
    }

    /** @return true if a callable is held. */
    explicit operator bool() const { return vtable_ != nullptr; }

    /**
     * @return true if empty or the held callable's capture is
     * copy-constructible (i.e. clone() would succeed).
     */
    bool
    cloneable() const
    {
        return vtable_ == nullptr || vtable_->clone != nullptr;
    }

    /**
     * Duplicate the held callable (the snapshot path; never hot).
     * Aborts on a move-only capture: snapshotting a component whose
     * pending callbacks cannot be copied is a contract violation the
     * caller must rule out up front, not a recoverable condition.
     */
    InlineFunction
    clone() const
    {
        InlineFunction out;
        if (vtable_ != nullptr) {
            if (vtable_->clone == nullptr) {
                std::fprintf(stderr,
                             "panic: InlineFunction::clone() on a "
                             "move-only capture — this callback "
                             "cannot be snapshotted\n");
                std::abort();
            }
            vtable_->clone(out.storage_, storage_);
            out.vtable_ = vtable_;
        }
        return out;
    }

    /**
     * @return true if the held callable (if any) lives in the inline
     * buffer. Exposed so tests can pin the capture-size budget of
     * hot-path call sites.
     */
    bool
    storedInline() const
    {
        return vtable_ == nullptr || vtable_->inlineStored;
    }

  private:
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= kInlineAlign &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(fn));
            vtable_ = &kInlineVtable<Fn>;
        } else {
            *reinterpret_cast<Fn **>(storage_) =
                new Fn(std::forward<F>(fn));
            vtable_ = &kHeapVtable<Fn>;
        }
    }

    struct VTable
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into dst from src; src is destroyed. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
        /** Vacate src, then run the callable (see consumeInvoke). */
        R (*consume)(void *src, Args &&...);
        /** Copy-construct into dst from src (the snapshot path);
         *  nullptr for move-only captures. */
        void (*clone)(void *dst, const void *src);
        bool inlineStored;
    };

    using CloneFn = void (*)(void *, const void *);

    /** clone entry for the inline table: copy in place, or nullptr
     *  when the capture is move-only. */
    template <typename Fn>
    static constexpr CloneFn
    inlineCloneFor()
    {
        if constexpr (std::is_copy_constructible_v<Fn>) {
            return [](void *dst, const void *src) {
                ::new (dst) Fn(*std::launder(
                    reinterpret_cast<const Fn *>(src)));
            };
        } else {
            return nullptr;
        }
    }

    /** clone entry for the heap table: copy to a fresh heap cell. */
    template <typename Fn>
    static constexpr CloneFn
    heapCloneFor()
    {
        if constexpr (std::is_copy_constructible_v<Fn>) {
            return [](void *dst, const void *src) {
                *reinterpret_cast<Fn **>(dst) = new Fn(
                    **reinterpret_cast<Fn *const *>(src));
            };
        } else {
            return nullptr;
        }
    }

    template <typename Fn>
    static constexpr VTable kInlineVtable = {
        [](void *p, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
        [](void *src, Args &&...args) -> R {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            Fn local(std::move(*s));
            s->~Fn();
            return local(std::forward<Args>(args)...);
        },
        inlineCloneFor<Fn>(),
        true,
    };

    template <typename Fn>
    static constexpr VTable kHeapVtable = {
        [](void *p, Args &&...args) -> R {
            return (**reinterpret_cast<Fn **>(p))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
        [](void *p) { delete *reinterpret_cast<Fn **>(p); },
        [](void *src, Args &&...args) -> R {
            // The callable lives on the heap, not in src: reading
            // the pointer already vacates the wrapper's storage.
            Fn *p = *reinterpret_cast<Fn **>(src);
            struct Deleter // delete even if the call throws
            {
                Fn *p;
                ~Deleter() { delete p; }
            } del{p};
            return (*p)(std::forward<Args>(args)...);
        },
        heapCloneFor<Fn>(),
        false,
    };

    alignas(kInlineAlign) unsigned char storage_[N];
    const VTable *vtable_ = nullptr;
};

/** The event queue's callback type (the historical name). */
using InlineCallback = InlineFunction<void(), 48>;

/**
 * Capture wrapper that makes a lambda *detectably* non-copyable.
 *
 * std::vector<move-only T> still advertises a copy constructor
 * (std::is_copy_constructible_v is true; instantiating the copy is
 * ill-formed), so a lambda capturing such a container by value sends
 * inlineCloneFor down the copy branch and the build fails inside
 * vector's copy. Capturing `MoveOnly(std::move(v))` instead turns
 * the trait honest: the clone slot becomes nullptr and the callback
 * is simply not snapshottable — clone() aborts loudly if a snapshot
 * ever reaches it.
 */
template <typename T>
struct MoveOnly
{
    T value;

    explicit MoveOnly(T v) : value(std::move(v)) {}
    MoveOnly(MoveOnly &&) = default;
    MoveOnly &operator=(MoveOnly &&) = default;
    MoveOnly(const MoveOnly &) = delete;
    MoveOnly &operator=(const MoveOnly &) = delete;
};

} // namespace iocost::sim

#endif // IOCOST_SIM_INLINE_FUNCTION_HH
