/**
 * @file
 * Weighted cgroup hierarchy with cached hierarchical weights.
 *
 * Mirrors the part of the kernel cgroup v2 machinery that IO
 * controllers consume: a tree of groups, each with a configured
 * weight, and the derived *hierarchical* weight (hweight) obtained by
 * compounding each node's share of its siblings' weights up to the
 * root (paper §3.1, step 3).
 *
 * Like the kernel's iocost, every node carries two weights:
 *
 *  - weight: the configured weight (what the administrator set);
 *  - inuse:  the weight currently in effect, lowered below `weight`
 *            while the group donates budget (§3.6) and restored when
 *            the donation is rescinded.
 *
 * hweightActive() compounds `weight` (the entitlement); hweightInuse()
 * compounds `inuse` (the share after donation). Throttling decisions
 * use hweightInuse; donation planning uses both.
 *
 * hweights are cached per node and invalidated by a tree-wide
 * generation number, bumped whenever any weight, inuse value, or
 * activation changes — exactly the paper's "weight tree generation
 * number" (§3.1.1).
 */

#ifndef IOCOST_CGROUP_CGROUP_TREE_HH
#define IOCOST_CGROUP_CGROUP_TREE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/state.hh"

namespace iocost::cgroup {

/** Index of a cgroup within its tree. */
using CgroupId = uint32_t;

/** The root group always has id 0. */
inline constexpr CgroupId kRoot = 0;

/** Sentinel for "no cgroup". */
inline constexpr CgroupId kNone = UINT32_MAX;

/** Default cgroup v2 io.weight. */
inline constexpr uint32_t kDefaultWeight = 100;

/**
 * A tree of weighted control groups.
 *
 * Groups are created once and never destroyed (ids are stable);
 * datacenter hosts recycle container cgroups, but within one
 * simulated experiment the set is fixed, matching how the benches
 * use it.
 */
class CgroupTree
{
  public:
    CgroupTree();

    /**
     * Create a child group.
     *
     * @param parent Parent group id (kRoot for top level).
     * @param name Human-readable name for reports.
     * @param weight Configured weight (> 0).
     * @return Id of the new group.
     */
    CgroupId create(CgroupId parent, std::string name,
                    uint32_t weight = kDefaultWeight);

    /** Number of groups including the root. */
    size_t size() const { return nodes_.size(); }

    /** Parent id; kNone for the root. */
    CgroupId parent(CgroupId id) const { return nodes_[id].parent; }

    /** Children ids of @p id. */
    const std::vector<CgroupId> &
    children(CgroupId id) const
    {
        return nodes_[id].children;
    }

    /** Name of @p id. */
    const std::string &name(CgroupId id) const
    {
        return nodes_[id].name;
    }

    /** Slash-separated path from the root (root is "/"). */
    std::string path(CgroupId id) const;

    /** Configured weight. */
    uint32_t weight(CgroupId id) const { return nodes_[id].weight; }

    /** Set the configured weight; also resets inuse to the weight. */
    void setWeight(CgroupId id, uint32_t weight);

    /** Effective (donation-adjusted) weight. */
    double inuse(CgroupId id) const { return nodes_[id].inuse; }

    /**
     * Set the effective weight (> 0; may exceed the configured
     * weight inside fully-donating subtrees — only sibling ratios
     * matter). Called by the planning path (donation) and the issue
     * path (rescind).
     */
    void setInuse(CgroupId id, double inuse);

    /** @return true if the group itself is active (issued IO). */
    bool activeSelf(CgroupId id) const
    {
        return nodes_[id].activeSelf;
    }

    /**
     * @return true if the group or any descendant is active; inactive
     * subtrees are excluded from sibling weight sums so their budget
     * implicitly flows to active siblings (§3.1.1).
     */
    bool
    subtreeActive(CgroupId id) const
    {
        return nodes_[id].activeDescendants > 0 ||
               nodes_[id].activeSelf;
    }

    /** Mark a (leaf) group active or inactive. */
    void setActive(CgroupId id, bool active);

    /**
     * Hierarchical share of the device based on configured weights.
     * 1.0 for the root. 0 for inactive groups.
     */
    double hweightActive(CgroupId id) const;

    /**
     * Hierarchical share based on donation-adjusted (inuse) weights.
     * This is the share the issue path divides costs by.
     */
    double hweightInuse(CgroupId id) const;

    /**
     * Current tree generation; bumped on any weight/active change.
     * Exposed so controllers can keep their own derived caches.
     */
    uint64_t generation() const { return generation_; }

    /** All ids in creation order (root first). */
    std::vector<CgroupId> allIds() const;

    /** Ids of leaves (groups with no children). */
    std::vector<CgroupId> leafIds() const;

    /** @return true if @p ancestor is on the path from @p id to root
     *  (a group is its own ancestor). */
    bool isAncestor(CgroupId ancestor, CgroupId id) const;

    /**
     * @name Snapshot support.
     *
     * Structure (parent links, names) is identity and must match at
     * load time — snapshots roll state back, they never create or
     * destroy cgroups. The per-node *mutable hweight caches* are
     * serialized too, deliberately: refreshCache() tests
     * `cacheGen == generation_` for equality, so a branch that
     * bumped the generation and stamped fresh caches could collide
     * with a replayed timeline reaching the same generation number
     * — restoring the caches verbatim closes that hole and costs a
     * few doubles per node.
     * @{
     */
    void saveState(sim::StateWriter &w) const { walk(*this, w); }
    void loadState(sim::StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    struct Node
    {
        CgroupId parent = kNone;
        std::vector<CgroupId> children;
        std::string name;
        uint32_t weight = kDefaultWeight;
        double inuse = kDefaultWeight;
        bool activeSelf = false;
        uint32_t activeDescendants = 0;

        // hweight caches, keyed by tree generation.
        mutable uint64_t cacheGen = 0;
        mutable double cachedActive = 0.0;
        mutable double cachedInuse = 0.0;
    };

    void bump() { ++generation_; }
    void refreshCache(CgroupId id) const;

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.value(self.generation_);
        t.template same<uint32_t>(
            self.nodes_.size(),
            "CgroupTree::loadState: node count mismatch — "
            "snapshots restore state, they cannot add or "
            "remove cgroups");
        for (auto &n : self.nodes_) {
            t.value(n.weight);
            t.value(n.inuse);
            t.value(n.activeSelf);
            t.value(n.activeDescendants);
            t.value(n.cacheGen);
            t.value(n.cachedActive);
            t.value(n.cachedInuse);
        }
    }

    std::vector<Node> nodes_;
    uint64_t generation_ = 1;
};

} // namespace iocost::cgroup

#endif // IOCOST_CGROUP_CGROUP_TREE_HH
