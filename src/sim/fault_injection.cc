#include "sim/fault_injection.hh"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/hash.hh"

namespace ev8
{

namespace
{

const char *const kPointNames[] = {
    "job",          "die",          "cache_read",
    "cache_write",  "cache_rename", "cache_short_write",
    "ckpt_read",    "ckpt_write",   "ckpt_corrupt",
    "session_drop", "sidecar_read", "sidecar_write",
    "conn_drop",    "slow_peer",
};

constexpr size_t kNumPoints = sizeof(kPointNames) / sizeof(kPointNames[0]);

/** splitmix64 finalizer: decorrelates the occurrence-hash inputs. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
parseU64(const std::string &text, const std::string &what)
{
    if (text.empty())
        throw std::invalid_argument("empty " + what);
    for (const char ch : text) {
        if (ch < '0' || ch > '9') {
            throw std::invalid_argument("invalid " + what + " '" + text
                                        + "'; expected an integer");
        }
    }
    return std::strtoull(text.c_str(), nullptr, 10);
}

double
parseProb(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || v < 0.0
        || v > 1.0) {
        throw std::invalid_argument("invalid probability '" + text
                                    + "'; expected a number in [0,1]");
    }
    return v;
}

} // namespace

const char *
FaultInjector::pointName(FaultPoint point)
{
    return kPointNames[static_cast<size_t>(point)];
}

FaultInjector::FaultInjector(const std::string &spec)
{
    size_t pos = 0;
    while (pos <= spec.size()) {
        if (spec.empty())
            break;
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            throw std::invalid_argument("empty entry in fault spec");

        if (item.rfind("seed=", 0) == 0) {
            seed_ = parseU64(item.substr(5), "seed");
            continue;
        }

        // point ['/' keysub] ['@' first] ['+' count] ['~' prob].
        // keysub may itself contain '/' (cell keys do), so it extends to
        // the next '@', '+' or '~' -- characters keys never contain.
        Entry entry;
        const size_t name_end = item.find_first_of("/@+~");
        const std::string name = item.substr(0, name_end);
        size_t point_idx = kNumPoints;
        for (size_t i = 0; i < kNumPoints; ++i) {
            if (name == kPointNames[i])
                point_idx = i;
        }
        if (point_idx == kNumPoints) {
            throw std::invalid_argument("unknown fault point '" + name
                                        + "'");
        }
        entry.point = static_cast<FaultPoint>(point_idx);

        size_t at = name_end;
        while (at != std::string::npos && at < item.size()) {
            const char tag = item[at];
            size_t end = item.find_first_of("@+~", at + 1);
            if (end == std::string::npos)
                end = item.size();
            const std::string field = item.substr(at + 1, end - at - 1);
            switch (tag) {
              case '/':
                entry.keySub = field;
                break;
              case '@':
                entry.first = parseU64(field, "occurrence");
                if (entry.first == 0) {
                    throw std::invalid_argument(
                        "occurrence '@0' is invalid; occurrences are "
                        "1-based");
                }
                break;
              case '+':
                if (field == "*") {
                    entry.permanent = true;
                } else {
                    entry.count = parseU64(field, "count");
                    if (entry.count == 0) {
                        throw std::invalid_argument(
                            "count '+0' would never fire");
                    }
                }
                break;
              case '~':
                entry.prob = parseProb(field);
                break;
              default:
                throw std::invalid_argument("malformed entry '" + item
                                            + "'");
            }
            at = end;
        }
        entries_.push_back(std::move(entry));
    }
}

bool
FaultInjector::matches(const Entry &entry, FaultPoint point,
                       const std::string &key) const
{
    if (entry.point != point)
        return false;
    if (entry.keySub.empty())
        return true;
    if (entry.keySub[0] == '=')
        return key == entry.keySub.substr(1);
    return key.find(entry.keySub) != std::string::npos;
}

bool
FaultInjector::fires(FaultPoint point, const std::string &key)
{
    if (entries_.empty())
        return false;

    bool fired = false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t e = 0; e < entries_.size(); ++e) {
        const Entry &entry = entries_[e];
        if (!matches(entry, point, key))
            continue;
        // Count the occurrence whether or not it fires: determinism
        // depends only on how often this (point, key) was consulted.
        const uint64_t n = ++occurrences_[{e, key}];
        if (n < entry.first)
            continue;
        if (!entry.permanent && n >= entry.first + entry.count)
            continue;
        if (entry.prob < 1.0) {
            ContentHash h;
            h.u64(seed_);
            h.u64(e);
            h.str(key);
            h.u64(n);
            // Top 53 bits -> a uniform double in [0,1).
            const double u = static_cast<double>(mix64(h.value()) >> 11)
                * 0x1.0p-53;
            if (u >= entry.prob)
                continue;
        }
        fired = true;
    }
    return fired;
}

void
FaultInjector::maybeThrow(FaultPoint point, const std::string &key)
{
    if (fires(point, key)) {
        throw InjectedFault(std::string("injected ") + pointName(point)
                            + " fault at " + key);
    }
}

void
FaultInjector::maybeKill(const std::string &key)
{
    if (fires(FaultPoint::Die, key)) {
        std::fprintf(stderr, "ev8: injected die at %s\n", key.c_str());
        std::fflush(stderr);
        ::raise(SIGKILL);
    }
}

FaultInjector &
FaultInjector::global()
{
    static std::mutex m;
    static std::string cached_spec;
    static std::unique_ptr<FaultInjector> instance;

    std::lock_guard<std::mutex> lock(m);
    const char *env = std::getenv("EV8_FAULT_SPEC");
    const std::string spec = env ? env : "";
    if (!instance || spec != cached_spec) {
        try {
            instance = std::make_unique<FaultInjector>(spec);
        } catch (const std::invalid_argument &err) {
            std::fprintf(stderr, "EV8_FAULT_SPEC: %s\n", err.what());
            std::exit(2);
        }
        cached_spec = spec;
    }
    return *instance;
}

} // namespace ev8
