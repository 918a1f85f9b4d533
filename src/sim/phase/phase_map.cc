#include "sim/phase/phase_map.hh"

#include <fstream>
#include <istream>
#include <ostream>

#include "sim/block_stream.hh"
#include "sim/phase/classifier.hh"
#include "sim/phase/features.hh"
#include "trace/varint.hh"

namespace ev8
{

namespace
{

constexpr char kMagic[4] = {'E', 'V', '8', 'P'};

} // namespace

PhaseMap
buildPhaseMap(const BlockStream &stream, uint64_t window_branches,
              uint32_t max_phases)
{
    PhaseMap map;
    map.name = stream.name();
    map.branches = stream.branches();
    map.instructions = stream.instructions();
    map.windowBranches = window_branches;
    map.maxPhases = max_phases;

    if (window_branches == 0)
        window_branches = 1;

    // Tile: block-aligned windows closing as soon as the branch budget
    // is met. A final short window absorbs the tail so the tiling is
    // exact (every block in exactly one window).
    const size_t nblocks = stream.blocks();
    size_t begin = 0;
    uint64_t branch = 0; // running flat branch index at `begin`
    while (begin < nblocks) {
        PhaseWindow w;
        w.blockBegin = begin;
        w.branchBegin = branch;
        uint64_t branches = 0, instrs = 0;
        size_t b = begin;
        while (b < nblocks && branches < window_branches) {
            const BlockShape &shape = stream.blockShape(b);
            branches += shape.numBranches;
            instrs += shape.instrs;
            ++b;
        }
        w.blockEnd = b;
        w.branches = branches;
        w.instrs = instrs;
        map.windows.push_back(w);
        begin = b;
        branch += branches;
    }

    PhaseClassifier classifier(max_phases);
    WindowFeatureExtractor extractor;
    for (PhaseWindow &w : map.windows) {
        const WindowFeatures f = extractor.extract(
            stream, static_cast<size_t>(w.blockBegin),
            static_cast<size_t>(w.blockEnd));
        w.phaseId = classifier.classify(f);
    }
    map.phases = classifier.phases();
    return map;
}

void
writePhaseMap(std::ostream &out, const PhaseMap &map)
{
    out.write(kMagic, sizeof(kMagic));
    putU32(out, PhaseMap::kFormatVersion);
    putU32(out, static_cast<uint32_t>(map.name.size()));
    out.write(map.name.data(),
              static_cast<std::streamsize>(map.name.size()));
    putVarint(out, map.branches);
    putVarint(out, map.instructions);
    putVarint(out, map.windowBranches);
    putU32(out, map.maxPhases);
    putU32(out, map.phases);
    putVarint(out, map.windows.size());
    for (const PhaseWindow &w : map.windows) {
        putVarint(out, w.blockBegin);
        putVarint(out, w.blockEnd);
        putVarint(out, w.branchBegin);
        putVarint(out, w.branches);
        putVarint(out, w.instrs);
        putVarint(out, w.phaseId);
    }
    if (!out)
        throw TraceIoError("phase map write failure");
}

void
writePhaseMapFile(const std::string &path, const PhaseMap &map)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw TraceIoError("cannot open '" + path + "' for writing");
    writePhaseMap(out, map);
    out.flush();
    if (!out)
        throw TraceIoError("short write to '" + path + "'");
}

PhaseMap
readPhaseMap(std::istream &in)
{
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::char_traits<char>::compare(magic, kMagic, 4) != 0)
        throw TraceIoError("bad phase map magic");
    if (getU32(in) != PhaseMap::kFormatVersion)
        throw TraceIoError("unsupported phase map version");

    const uint32_t name_len = getU32(in);
    if (name_len > (1u << 20))
        throw TraceIoError("implausible phase map name length");
    PhaseMap map;
    map.name.assign(name_len, '\0');
    in.read(map.name.data(), name_len);
    if (!in)
        throw TraceIoError("truncated phase map name");

    map.branches = getVarint(in);
    map.instructions = getVarint(in);
    map.windowBranches = getVarint(in);
    map.maxPhases = getU32(in);
    map.phases = getU32(in);
    const uint64_t count = getVarint(in);
    if (count > (uint64_t{1} << 32))
        throw TraceIoError("implausible phase map window count");
    map.windows.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        PhaseWindow w;
        w.blockBegin = getVarint(in);
        w.blockEnd = getVarint(in);
        w.branchBegin = getVarint(in);
        w.branches = getVarint(in);
        w.instrs = getVarint(in);
        const uint64_t phase = getVarint(in);
        if (phase >= map.phases)
            throw TraceIoError("phase map window label out of range");
        w.phaseId = static_cast<uint32_t>(phase);
        map.windows.push_back(w);
    }
    if (!in)
        throw TraceIoError("truncated phase map");
    return map;
}

PhaseMap
readPhaseMapFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceIoError("cannot open '" + path + "' for reading");
    return readPhaseMap(in);
}

} // namespace ev8
