/**
 * @file
 * Factory: StmKind -> STM engine running that kind's algorithm. This is
 * the runtime analogue of the paper's compile-time algorithm-selection
 * macros, and the entry point sweep harnesses use to iterate the whole
 * taxonomy.
 */

#ifndef PIMSTM_CORE_STM_FACTORY_HH
#define PIMSTM_CORE_STM_FACTORY_HH

#include <memory>
#include <vector>

#include "core/stm.hh"

namespace pimstm::core
{

/**
 * Create the STM selected by @p cfg.kind for @p dpu, able to switch
 * live to any of @p candidates (see Stm::Stm and Stm::requestKindSwitch).
 * Throws FatalError when the metadata placement cannot be satisfied
 * (e.g. WRAM metadata that does not fit), which the sweep harnesses
 * catch to reproduce the paper's "not runnable in WRAM" cases.
 */
std::unique_ptr<Stm> makeStm(sim::Dpu &dpu, const StmConfig &cfg,
                             const std::vector<StmKind> &candidates = {});

} // namespace pimstm::core

#endif // PIMSTM_CORE_STM_FACTORY_HH
