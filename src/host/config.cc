#include "host/config.hh"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/parse.hh"

namespace iocost::host {

namespace {

/** Apply one key=value setting to @p cg. */
void
applySetting(Host &host, cgroup::CgroupId cg, const std::string &key,
             const std::string &value)
{
    if (key == "io.weight") {
        const uint64_t weight = sim::parseCount(value);
        if (weight == 0 || weight > 10000)
            throw std::invalid_argument("must be in [1, 10000]");
        host.tree().setWeight(cg, static_cast<uint32_t>(weight));
    } else if (key == "memory.low") {
        const uint64_t bytes = sim::parseBytes(value);
        if (!host.hasMemory())
            throw std::invalid_argument("requires enableMemory");
        host.mm().setProtection(cg, bytes);
    } else if (key == "memory.dirty_limit") {
        const uint64_t bytes = sim::parseBytes(value);
        if (!host.hasPageCache())
            throw std::invalid_argument("requires enablePageCache");
        host.pageCache().setDirtyLimit(cg, bytes);
    } else {
        throw std::invalid_argument("unknown key");
    }
}

/** Split a path into components, ignoring leading '/'. */
std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(path);
    while (std::getline(in, part, '/')) {
        if (!part.empty())
            parts.push_back(part);
    }
    return parts;
}

cgroup::CgroupId
childByName(cgroup::CgroupTree &tree, cgroup::CgroupId parent,
            const std::string &name)
{
    for (cgroup::CgroupId child : tree.children(parent)) {
        if (tree.name(child) == name)
            return child;
    }
    return cgroup::kNone;
}

} // namespace

cgroup::CgroupId
findCgroup(cgroup::CgroupTree &tree, const std::string &path)
{
    cgroup::CgroupId cur = cgroup::kRoot;
    for (const std::string &part : splitPath(path)) {
        cur = childByName(tree, cur, part);
        if (cur == cgroup::kNone)
            return cgroup::kNone;
    }
    return cur;
}

cgroup::CgroupId
ensureCgroup(cgroup::CgroupTree &tree, const std::string &path)
{
    cgroup::CgroupId cur = cgroup::kRoot;
    for (const std::string &part : splitPath(path)) {
        const cgroup::CgroupId next = childByName(tree, cur, part);
        cur = next != cgroup::kNone ? next : tree.create(cur, part);
    }
    return cur;
}

ApplyResult
applyConfig(Host &host, const std::string &config)
{
    ApplyResult result;
    std::istringstream lines(config);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        // Strip comments.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream in(line);
        std::string path;
        if (!(in >> path))
            continue; // blank line

        const cgroup::CgroupId cg =
            ensureCgroup(host.tree(), path);
        std::string setting;
        bool any = false;
        while (in >> setting) {
            const auto eq = setting.find('=');
            if (eq == std::string::npos) {
                result.error = "line " + std::to_string(line_no) +
                               ": expected key=value, got '" +
                               setting + "'";
                return result;
            }
            const std::string key = setting.substr(0, eq);
            const std::string value = setting.substr(eq + 1);
            try {
                applySetting(host, cg, key, value);
            } catch (const std::invalid_argument &err) {
                result.error = "line " + std::to_string(line_no) +
                               ": " + key + ": " + err.what();
                return result;
            }
            any = true;
        }
        if (any)
            ++result.applied;
    }
    return result;
}

} // namespace iocost::host
