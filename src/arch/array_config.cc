#include "arch/array_config.hh"

#include <cstdio>

#include "base/logging.hh"

namespace s2ta {

const char *
archKindName(ArchKind kind)
{
    switch (kind) {
      case ArchKind::Sa:     return "SA";
      case ArchKind::SaZvcg: return "SA-ZVCG";
      case ArchKind::SaSmt:  return "SA-SMT";
      case ArchKind::S2taW:  return "S2TA-W";
      case ArchKind::S2taAw: return "S2TA-AW";
    }
    return "?";
}

std::string
TpeGeometry::toString() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%dx%dx%d_%dx%d", a, b, c, m, n);
    return buf;
}

int64_t
ArrayConfig::totalMacs() const
{
    const int64_t tpes = static_cast<int64_t>(tpe.m) * tpe.n;
    switch (kind) {
      case ArchKind::Sa:
      case ArchKind::SaZvcg:
      case ArchKind::SaSmt:
        // Scalar PEs: one MAC each.
        return tpes * tpe.a * tpe.b * tpe.c;
      case ArchKind::S2taW:
        // A x C DP4M8 units per TPE, 4 hardware MACs each (the
        // datapath width is fixed; denser weight specs take extra
        // passes, they do not grow the hardware).
        return tpes * tpe.a * tpe.c * kDp4Lanes;
      case ArchKind::S2taAw:
        // A x C DP1M4 units per TPE, one MAC each.
        return tpes * tpe.a * tpe.c;
    }
    return 0;
}

std::string
ArrayConfig::name() const
{
    std::string s = archKindName(kind);
    s += "(" + tpe.toString();
    if (kind == ArchKind::SaSmt) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), ",T%dQ%d", smt.threads,
                      smt.queue_depth);
        s += buf;
    }
    if (kind == ArchKind::S2taW || kind == ArchKind::S2taAw)
        s += ",W" + weight_dbb.toString();
    if (kind == ArchKind::S2taAw) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), ",A%d/%d", act_nnz, bz);
        s += buf;
    }
    s += ")";
    return s;
}

void
ArrayConfig::check() const
{
    if (tpe.a < 1 || tpe.b < 1 || tpe.c < 1 || tpe.m < 1 || tpe.n < 1)
        s2ta_fatal("invalid TPE geometry %s", tpe.toString().c_str());
    if (bz < 1 || bz > 8)
        s2ta_fatal("invalid block size %d", bz);
    switch (kind) {
      case ArchKind::Sa:
      case ArchKind::SaZvcg:
        break;
      case ArchKind::SaSmt:
        // Two threads (the paper's T2Q2 and T2Q4, Fig. 3 and 10):
        // the fast engine's timing table reads both streams' match
        // nibbles as one byte. The FIFO must take one arrival from
        // each thread, or a slot where both deliver could never be
        // admitted, and a table entry holds levels up to 31.
        if (smt.threads != 2 || smt.queue_depth < smt.threads ||
            smt.queue_depth > 31)
            s2ta_fatal("invalid SMT config T%dQ%d", smt.threads,
                       smt.queue_depth);
        break;
      case ArchKind::S2taW:
        if (!weight_dbb.valid() || weight_dbb.bz != bz)
            s2ta_fatal("invalid weight DBB %s",
                       weight_dbb.toString().c_str());
        if (tpe.b != bz)
            s2ta_fatal("S2TA-W expects B == BZ (got B=%d, BZ=%d)",
                       tpe.b, bz);
        break;
      case ArchKind::S2taAw:
        if (!weight_dbb.valid() || weight_dbb.bz != bz)
            s2ta_fatal("invalid weight DBB %s",
                       weight_dbb.toString().c_str());
        if (act_nnz < 1 || act_nnz > bz)
            s2ta_fatal("invalid A-DBB NNZ %d", act_nnz);
        break;
    }
}

ArrayConfig
ArrayConfig::sa()
{
    ArrayConfig cfg;
    cfg.kind = ArchKind::Sa;
    cfg.tpe = {1, 1, 1, 32, 64};
    return cfg;
}

ArrayConfig
ArrayConfig::saZvcg()
{
    ArrayConfig cfg = sa();
    cfg.kind = ArchKind::SaZvcg;
    return cfg;
}

ArrayConfig
ArrayConfig::saSmt(int queue_depth)
{
    ArrayConfig cfg = sa();
    cfg.kind = ArchKind::SaSmt;
    cfg.smt = {2, queue_depth};
    return cfg;
}

ArrayConfig
ArrayConfig::s2taW()
{
    ArrayConfig cfg;
    cfg.kind = ArchKind::S2taW;
    cfg.tpe = {4, 8, 4, 4, 8};
    cfg.weight_dbb = {4, 8};
    return cfg;
}

ArrayConfig
ArrayConfig::s2taAw(int act_nnz)
{
    ArrayConfig cfg;
    cfg.kind = ArchKind::S2taAw;
    cfg.tpe = {8, 4, 4, 8, 8};
    cfg.weight_dbb = {4, 8};
    cfg.act_nnz = act_nnz;
    return cfg;
}

} // namespace s2ta
