/**
 * @file
 * IdTable — open-addressed map from a nonzero bio id to a value, for
 * the sweep's lookups that start from an id rather than a slot
 * handle: each replay device's parked bios and the fused observer's
 * in-flight records, found by the id a ServiceLog notification names
 * (both stay sized to the device queue depth), and the log's retried
 * attempts (attempt >= 1, keyed by id and attempt; empty on a device
 * that fails nothing). The log's live ids themselves sit in a
 * sim::SlotPool addressed by handle.
 *
 * Fibonacci hashing onto a power-of-two array, linear probing, and
 * backward-shift erase (no tombstones). It doubles whenever an
 * insert would pass 50% load and never shrinks, so once grown to a
 * workload's high-water mark it runs allocation-free. Id 0 marks an
 * empty cell; iteration is in cell order, a function of the
 * insert/erase sequence alone.
 */

#ifndef IOCOST_SIM_ID_TABLE_HH
#define IOCOST_SIM_ID_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace iocost::sim {

template <typename V>
class IdTable
{
  public:
    /** One slot: id 0 = empty. */
    struct Cell
    {
        uint64_t id = 0;
        V value{};
    };

    /** @param capacity Initial cell count, rounded up to a power of
     *  two (minimum 8). */
    explicit IdTable(size_t capacity = 0)
        : cells_(pow2AtLeast(capacity))
    {}

    /** Ids currently stored. */
    size_t size() const { return count_; }

    /** The cell holding @p id (nonzero), or nullptr. Valid until
     *  the next insert or erase. */
    Cell *
    find(uint64_t id)
    {
        if (count_ == 0)
            return nullptr;
        const size_t mask = cells_.size() - 1;
        size_t i = home(id);
        while (cells_[i].id != id) {
            if (cells_[i].id == 0)
                return nullptr;
            i = (i + 1) & mask;
        }
        return &cells_[i];
    }

    const Cell *
    find(uint64_t id) const
    {
        return const_cast<IdTable *>(this)->find(id);
    }

    /** Insert @p id, which must be nonzero and absent, and return
     *  its value (default-constructed). */
    V &
    insert(uint64_t id)
    {
        if ((count_ + 1) * 2 > cells_.size())
            grow();
        Cell &c = place(id);
        ++count_;
        return c.value;
    }

    /** Remove the cell @p c (a pointer find() returned). */
    void
    erase(Cell &c)
    {
        const size_t mask = cells_.size() - 1;
        // Backward-shift deletion keeps probe chains tombstone-free:
        // an element may slide into the hole iff the hole lies on
        // its probe path (its home index is no closer to it than the
        // hole is).
        size_t hole = static_cast<size_t>(&c - cells_.data());
        size_t j = (hole + 1) & mask;
        while (cells_[j].id != 0) {
            const size_t h = home(cells_[j].id);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                cells_[hole] = std::move(cells_[j]);
                cells_[j].id = 0;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        cells_[hole].id = 0;
        cells_[hole].value = V{};
        --count_;
    }

    /** Call f(id, value) for every stored id, in cell order. @p f
     *  may change values but must not insert or erase. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (Cell &c : cells_) {
            if (c.id != 0)
                f(c.id, c.value);
        }
    }

  private:
    static size_t
    pow2AtLeast(size_t n)
    {
        size_t cap = 8;
        while (cap < n)
            cap *= 2;
        return cap;
    }

    size_t
    home(uint64_t id) const
    {
        // Fibonacci hashing; ids are dense and increasing, so even
        // the raw id would probe well, but mixing is cheap insurance
        // against stride patterns from interleaved cgroups.
        return static_cast<size_t>(id * 0x9E3779B97F4A7C15ull) &
               (cells_.size() - 1);
    }

    /** First free cell on @p id's probe path, claimed for @p id. */
    Cell &
    place(uint64_t id)
    {
        const size_t mask = cells_.size() - 1;
        size_t i = home(id);
        while (cells_[i].id != 0)
            i = (i + 1) & mask;
        cells_[i].id = id;
        return cells_[i];
    }

    void
    grow()
    {
        std::vector<Cell> old = std::move(cells_);
        cells_.clear();
        cells_.resize(old.size() * 2);
        for (Cell &c : old) {
            if (c.id != 0)
                place(c.id).value = std::move(c.value);
        }
    }

    std::vector<Cell> cells_;
    size_t count_ = 0;
};

} // namespace iocost::sim

#endif // IOCOST_SIM_ID_TABLE_HH
