#include "core/stm_factory.hh"

#include "core/norec.hh"
#include "core/tiny.hh"
#include "core/vr.hh"
#include "util/logging.hh"

namespace pimstm::core
{

std::unique_ptr<StmAlgorithm>
makeAlgorithm(Stm &stm, StmKind kind)
{
    switch (kind) {
      case StmKind::NOrec:
        return std::make_unique<NOrecAlgorithm>(stm);
      case StmKind::TinyEtlWb:
      case StmKind::TinyEtlWt:
      case StmKind::TinyCtlWb:
      case StmKind::Tl2:
        return std::make_unique<TinyAlgorithm>(stm, kind);
      case StmKind::VrEtlWb:
      case StmKind::VrEtlWt:
      case StmKind::VrCtlWb:
        return std::make_unique<VrAlgorithm>(stm, kind);
      default:
        fatal("unknown StmKind ", static_cast<int>(kind));
    }
}

std::unique_ptr<Stm>
makeStm(sim::Dpu &dpu, const StmConfig &cfg,
        const std::vector<StmKind> &candidates)
{
    return std::make_unique<Stm>(dpu, cfg, candidates);
}

} // namespace pimstm::core
