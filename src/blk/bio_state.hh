/**
 * @file
 * Snapshot helpers for in-flight bios.
 *
 * Queued and in-flight bios are the one kind of simulator state
 * that cannot be flattened onto the snapshot byte tape: they carry
 * type-erased completion callbacks. Each bio is deep-cloned once
 * into the image's box tape (immutable, shared across restores) and
 * cloned back out on every restore, so a snapshot can seed any
 * number of branches without aliasing.
 */

#ifndef IOCOST_BLK_BIO_STATE_HH
#define IOCOST_BLK_BIO_STATE_HH

#include <cstdint>
#include <memory>

#include "blk/bio.hh"
#include "sim/state.hh"

namespace iocost::blk {

/** Box one bio, with the bios merged into it, into the snapshot
 *  image (one box either way). */
inline void
stateBio(sim::StateWriter &w, const BioPtr &bio)
{
    // cloneBio() heap-allocates the bio and its merge chain (pool ==
    // nullptr throughout), so the default shared_ptr deleter, which
    // releases the chain through ~Bio, is the right one and the
    // image can be destroyed from any thread.
    w.putBox(std::shared_ptr<const Bio>(cloneBio(*bio).release()));
}

/** Clone the next boxed bio back out of the image. */
inline void
stateBio(sim::StateReader &r, BioPtr &bio)
{
    bio = cloneBio(*r.getBoxAs<Bio>());
}

/** Save an ordered container of BioPtrs (deque, FifoRing). */
template <typename Container>
inline void
stateBios(sim::StateWriter &w, const Container &bios)
{
    w.value(static_cast<uint64_t>(bios.size()));
    for (size_t i = 0; i < bios.size(); ++i)
        stateBio(w, bios.at(i));
}

/** Restore an ordered container of BioPtrs (deque, FifoRing),
 *  destroying its current bios first. */
template <typename Container>
inline void
stateBios(sim::StateReader &r, Container &bios)
{
    bios.clear();
    uint64_t n = 0;
    r.value(n);
    for (uint64_t i = 0; i < n; ++i) {
        BioPtr bio;
        stateBio(r, bio);
        bios.push_back(std::move(bio));
    }
}

} // namespace iocost::blk

#endif // IOCOST_BLK_BIO_STATE_HH
