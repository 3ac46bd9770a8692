#include "cgroup/cgroup_tree.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace iocost::cgroup {

CgroupTree::CgroupTree()
{
    Node root;
    // Built, not assigned from a literal: under the sanitizer build's
    // flags GCC 12 misreads the inlined `= "/"` copy as an
    // overlapping memcpy (-Wrestrict).
    root.name.push_back('/');
    root.weight = kDefaultWeight;
    root.inuse = kDefaultWeight;
    nodes_.push_back(std::move(root));
}

CgroupId
CgroupTree::create(CgroupId parent, std::string name, uint32_t weight)
{
    sim::panicIf(parent >= nodes_.size(),
                 "cgroup create: bad parent id");
    sim::panicIf(weight == 0, "cgroup create: zero weight");
    const CgroupId id = static_cast<CgroupId>(nodes_.size());
    Node node;
    node.parent = parent;
    node.name = std::move(name);
    node.weight = weight;
    node.inuse = weight;
    nodes_.push_back(std::move(node));
    nodes_[parent].children.push_back(id);
    bump();
    return id;
}

std::string
CgroupTree::path(CgroupId id) const
{
    if (id == kRoot)
        return "/";
    std::string out;
    for (CgroupId cur = id; cur != kRoot; cur = nodes_[cur].parent)
        out = "/" + nodes_[cur].name + out;
    return out;
}

void
CgroupTree::setWeight(CgroupId id, uint32_t weight)
{
    sim::panicIf(weight == 0, "cgroup setWeight: zero weight");
    nodes_[id].weight = weight;
    nodes_[id].inuse = weight;
    bump();
}

void
CgroupTree::setInuse(CgroupId id, double inuse)
{
    // No upper clamp: inuse is an internal effective weight, and the
    // donation math legitimately pushes a node's inuse above its
    // configured weight inside fully-donating subtrees (only the
    // ratios among siblings matter).
    nodes_[id].inuse = std::max(inuse, 1e-9);
    bump();
}

void
CgroupTree::setActive(CgroupId id, bool active)
{
    Node &node = nodes_[id];
    if (node.activeSelf == active)
        return;
    node.activeSelf = active;
    const int delta = active ? 1 : -1;
    for (CgroupId cur = node.parent; cur != kNone;
         cur = nodes_[cur].parent) {
        nodes_[cur].activeDescendants =
            static_cast<uint32_t>(
                static_cast<int>(nodes_[cur].activeDescendants) +
                delta);
    }
    // A group that falls inactive stops donating: restore inuse so a
    // later reactivation starts from its configured entitlement.
    if (!active)
        node.inuse = node.weight;
    bump();
}

void
CgroupTree::refreshCache(CgroupId id) const
{
    const Node &node = nodes_[id];
    if (node.cacheGen == generation_)
        return;

    if (id == kRoot) {
        node.cachedActive = subtreeActive(kRoot) ? 1.0 : 1.0;
        node.cachedInuse = 1.0;
        node.cacheGen = generation_;
        return;
    }

    if (!subtreeActive(id)) {
        node.cachedActive = 0.0;
        node.cachedInuse = 0.0;
        node.cacheGen = generation_;
        return;
    }

    refreshCache(node.parent);
    const Node &par = nodes_[node.parent];

    double sum_weight = 0.0;
    double sum_inuse = 0.0;
    for (CgroupId sib : par.children) {
        if (!subtreeActive(sib))
            continue;
        sum_weight += static_cast<double>(nodes_[sib].weight);
        sum_inuse += nodes_[sib].inuse;
    }
    node.cachedActive =
        par.cachedActive *
        static_cast<double>(node.weight) / sum_weight;
    node.cachedInuse = par.cachedInuse * node.inuse / sum_inuse;
    node.cacheGen = generation_;
}

double
CgroupTree::hweightActive(CgroupId id) const
{
    refreshCache(id);
    return nodes_[id].cachedActive;
}

double
CgroupTree::hweightInuse(CgroupId id) const
{
    refreshCache(id);
    return nodes_[id].cachedInuse;
}

std::vector<CgroupId>
CgroupTree::allIds() const
{
    std::vector<CgroupId> out(nodes_.size());
    for (CgroupId i = 0; i < nodes_.size(); ++i)
        out[i] = i;
    return out;
}

std::vector<CgroupId>
CgroupTree::leafIds() const
{
    std::vector<CgroupId> out;
    for (CgroupId i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].children.empty())
            out.push_back(i);
    }
    return out;
}

bool
CgroupTree::isAncestor(CgroupId ancestor, CgroupId id) const
{
    for (CgroupId cur = id; cur != kNone; cur = nodes_[cur].parent) {
        if (cur == ancestor)
            return true;
    }
    return false;
}

} // namespace iocost::cgroup
