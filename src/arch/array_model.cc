#include "arch/array_model.hh"

#include <algorithm>
#include <array>
#include <span>

#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "arch/plan_cache.hh"
#include "core/dap.hh"
#include "core/dbb.hh"

namespace s2ta {

OperandProfile
OperandProfile::build(const GemmProblem &p)
{
    OperandProfile prof;
    prof.m = p.m;
    prof.k = p.k;
    prof.n = p.n;
    prof.row_nz.assign(static_cast<size_t>(p.m), 0);
    prof.col_nz.assign(static_cast<size_t>(p.n), 0);
    prof.act_nz_at_k.assign(static_cast<size_t>(p.k), 0);
    prof.wgt_nz_at_k.assign(static_cast<size_t>(p.k), 0);

    for (int i = 0; i < p.m; ++i) {
        const int8_t *row = &p.a[static_cast<size_t>(i) * p.k];
        for (int kk = 0; kk < p.k; ++kk) {
            if (row[kk] != 0) {
                ++prof.row_nz[static_cast<size_t>(i)];
                ++prof.act_nz_at_k[static_cast<size_t>(kk)];
            }
        }
    }
    for (int kk = 0; kk < p.k; ++kk) {
        const int8_t *row = &p.w[static_cast<size_t>(kk) * p.n];
        for (int j = 0; j < p.n; ++j) {
            if (row[j] != 0) {
                ++prof.col_nz[static_cast<size_t>(j)];
                ++prof.wgt_nz_at_k[static_cast<size_t>(kk)];
            }
        }
    }
    for (int i = 0; i < p.m; ++i)
        prof.act_nnz += prof.row_nz[static_cast<size_t>(i)];
    for (int j = 0; j < p.n; ++j)
        prof.wgt_nnz += prof.col_nz[static_cast<size_t>(j)];
    for (int kk = 0; kk < p.k; ++kk) {
        prof.matched_products +=
            static_cast<int64_t>(
                prof.act_nz_at_k[static_cast<size_t>(kk)]) *
            prof.wgt_nz_at_k[static_cast<size_t>(kk)];
    }
    return prof;
}

std::vector<DbbBlock>
referenceBlocks(const GemmProblem &p, int bz, bool weights)
{
    const DbbSpec all{bz, bz};
    const int nb = (p.k + bz - 1) / bz;
    const int vectors = weights ? p.n : p.m;
    std::vector<DbbBlock> blocks;
    blocks.reserve(static_cast<size_t>(vectors) * nb);
    for (int v = 0; v < vectors; ++v) {
        for (int b = 0; b < nb; ++b) {
            std::array<int8_t, 8> dense{};
            for (int e = 0; e < bz && b * bz + e < p.k; ++e) {
                const int kk = b * bz + e;
                dense[static_cast<size_t>(e)] =
                    weights ? p.wgtAt(kk, v) : p.actAt(v, kk);
            }
            blocks.push_back(dbbEncode(
                std::span<const int8_t>(dense.data(),
                                        static_cast<size_t>(bz)),
                all));
        }
    }
    return blocks;
}

ArrayModel::ArrayModel(ArrayConfig cfg_) : cfg(cfg_)
{
    cfg.check();
}

int
ArrayModel::rowTiles(int m) const
{
    return (m + cfg.tileRows() - 1) / cfg.tileRows();
}

int
ArrayModel::colTiles(int n) const
{
    return (n + cfg.tileCols() - 1) / cfg.tileCols();
}

ArrayModel::TileGrid
ArrayModel::tileGrid(int m, int n) const
{
    TileGrid grid;
    const int tr = cfg.tileRows();
    const int tc = cfg.tileCols();
    grid.eff_rows = tr;
    grid.eff_cols = tc;
    if (2 * m <= tr) {
        // Skinny-m GEMM (FC): broadcast-fold column stripes across
        // the otherwise-idle row groups.
        grid.eff_cols = tc * (tr / m);
    } else if (2 * n <= tc) {
        // Skinny-n GEMM (depthwise group): broadcast-fold row
        // stripes across the otherwise-idle column groups.
        grid.eff_rows = tr * (tc / n);
    }
    grid.row_tiles = (m + grid.eff_rows - 1) / grid.eff_rows;
    grid.col_tiles = (n + grid.eff_cols - 1) / grid.eff_cols;
    return grid;
}

void
ArrayModel::checkOperands(const GemmProblem &p) const
{
    const bool dbb_kind = cfg.kind == ArchKind::S2taW ||
                          cfg.kind == ArchKind::S2taAw;
    if (!dbb_kind)
        return;
    if (p.k % cfg.bz != 0)
        s2ta_fatal("%s requires K %% %d == 0 (K=%d)",
                   cfg.name().c_str(), cfg.bz, p.k);
    const int bz = cfg.bz;
    const int nblocks = p.k / bz;

    // Weight blocks must satisfy the W-DBB bound. Column blocks are
    // strided in the K x N layout, so walk block-rows sequentially
    // with one per-column non-zero counter array; no block copies.
    std::vector<int16_t> col_cnt(static_cast<size_t>(p.n));
    for (int b = 0; b < nblocks; ++b) {
        std::fill(col_cnt.begin(), col_cnt.end(),
                  static_cast<int16_t>(0));
        for (int e = 0; e < bz; ++e) {
            const int8_t *row =
                &p.w[static_cast<size_t>(b * bz + e) * p.n];
            for (int j = 0; j < p.n; ++j)
                col_cnt[static_cast<size_t>(j)] +=
                    (row[j] != 0);
        }
        for (int j = 0; j < p.n; ++j) {
            if (col_cnt[static_cast<size_t>(j)] >
                cfg.weight_dbb.nnz) {
                s2ta_fatal("weight block (col %d, block %d) violates "
                           "%s; run pruneWeightsDbb first", j, b,
                           cfg.weight_dbb.toString().c_str());
            }
        }
    }

    // Activation blocks must satisfy the per-layer A-DBB bound;
    // row blocks are contiguous, so one span per row suffices.
    if (cfg.kind == ArchKind::S2taAw && cfg.act_nnz < cfg.bz) {
        const DbbSpec aspec{cfg.act_nnz, cfg.bz};
        for (int i = 0; i < p.m; ++i) {
            const std::span<const int8_t> row(
                &p.a[static_cast<size_t>(i) * p.k],
                static_cast<size_t>(p.k));
            for (int b = 0; b < nblocks; ++b) {
                if (!dbbSatisfies(row.subspan(
                        static_cast<size_t>(b) * bz, bz), aspec)) {
                    s2ta_fatal("activation block (row %d, block %d) "
                               "violates %s; run DAP first", i, b,
                               aspec.toString().c_str());
                }
            }
        }
    }
}

void
ArrayModel::checkPlan(const GemmPlan &plan) const
{
    const bool dbb_kind = cfg.kind == ArchKind::S2taW ||
                          cfg.kind == ArchKind::S2taAw;
    if (!dbb_kind)
        return;
    // K % bz geometry is enforced unconditionally by run(); this
    // only covers the density bounds.
    s2ta_assert(plan.bz() == cfg.bz,
                "plan block size %d != config bz %d", plan.bz(),
                cfg.bz);
    plan.checkWeights(cfg.weight_dbb);
    if (cfg.kind == ArchKind::S2taAw && cfg.act_nnz < cfg.bz)
        plan.checkActivations(DbbSpec{cfg.act_nnz, cfg.bz});
}

GemmRun
ArrayModel::run(const GemmProblem &p, const RunOptions &opt) const
{
    if (opt.engine == EngineKind::Scalar) {
        return run(GemmPlan::shallow(p), opt);
    }
    // The compressed form is config-independent, so a sweep sharing
    // a PlanCache encodes each workload once and every design point
    // after the first reuses the cached plan (operands are
    // fingerprinted per call, so mutated data can never hit).
    if (opt.plan_cache != nullptr) {
        const auto entry =
            opt.plan_cache->acquire(p, cfg.bz, opt.compute_output);
        return run(entry->plan, opt);
    }
    // The packed weights only feed the functional kernel;
    // events-only runs skip packing them.
    return run(GemmPlan::build(p, cfg.bz, opt.compute_output), opt);
}

bool
ArrayModel::usesScalarEngine(const GemmPlan &plan,
                             const RunOptions &opt)
{
    return opt.engine == EngineKind::Scalar || !plan.encoded();
}

std::vector<int32_t>
ArrayModel::scalarOutput(const GemmProblem &p) const
{
    return gemmReference(p);
}

GemmRun
ArrayModel::run(const GemmPlan &plan, const RunOptions &opt) const
{
    const GemmProblem &p = plan.problem();
    const int k = p.modeledK();
    // Block geometry is a hard requirement of the DBB architectures
    // (the scalar engine would silently truncate a ragged K tail),
    // so it is enforced even when density validation is skipped.
    if ((cfg.kind == ArchKind::S2taW ||
         cfg.kind == ArchKind::S2taAw) &&
        k % cfg.bz != 0) {
        s2ta_fatal("%s requires K %% %d == 0 (K=%d)",
                   cfg.name().c_str(), cfg.bz, k);
    }
    if (opt.validate_operands) {
        if (plan.encoded())
            checkPlan(plan);
        else
            checkOperands(p);
    }
    // The scalar engine rescans its operands for the reference
    // profile and output, which only a plain GEMM lays out as one
    // K-wide row per vector; the fast engine reads the plan's
    // profile of each group.
    const bool scalar = usesScalarEngine(plan, opt);
    OperandProfile scan;
    if (scalar) {
        s2ta_assert(p.groups == 1 && !p.padded(),
                    "the scalar engine runs plain GEMMs (%d groups, K "
                    "%d modeled as %d)", p.groups, p.k, p.modeledK());
        s2ta_assert(p.hasOperands(),
                    "the scalar engine needs a plan whose problem holds "
                    "its operands (an events-only entry holds none)");
        scan = OperandProfile::build(p);
    }
    GemmRun out;
    out.events.logical_macs =
        static_cast<int64_t>(p.groups) * p.m * k * p.n;
    simulate(plan, opt,
             scalar ? std::span<const OperandProfile>(&scan, 1)
                    : plan.profiles(),
             out.events);
    if (!opt.compute_output)
        return out;
    if (scalar) {
        out.output = scalarOutput(p);
    } else {
        out.output.resize(static_cast<size_t>(p.m) * p.groups * p.n);
        dbbGemm(plan, out.output.data(), opt.shard_pool);
    }
    return out;
}

std::unique_ptr<ArrayModel>
makeArrayModel(const ArrayConfig &cfg)
{
    switch (cfg.kind) {
      case ArchKind::Sa:
      case ArchKind::SaZvcg:
        return std::make_unique<SaModel>(cfg);
      case ArchKind::SaSmt:
        return std::make_unique<SaSmtModel>(cfg);
      case ArchKind::S2taW:
        return std::make_unique<S2taWModel>(cfg);
      case ArchKind::S2taAw:
        return std::make_unique<S2taAwModel>(cfg);
    }
    s2ta_panic("unknown architecture kind");
}

} // namespace s2ta
