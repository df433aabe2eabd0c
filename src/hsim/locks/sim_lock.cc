#include "src/hsim/locks/sim_lock.h"

#include <memory>
#include <string>

#include "src/hsim/types.h"

namespace hsim {
namespace {

std::unique_ptr<SimLock> MakeSpinLock(Machine* machine, ModuleId home, Tick max_backoff) {
  return std::make_unique<SimSpinLock>(
      machine, home, max_backoff, SimSpinLock::CoreType::kDefaultBaseBackoff,
      "spin(backoff<=" + std::to_string(TicksToUs(max_backoff)) + "us)");
}

}  // namespace

const char* LockKindName(LockKind kind) {
  switch (kind) {
    case LockKind::kSpin35us:
      return "spin-35us";
    case LockKind::kSpin2ms:
      return "spin-2ms";
    case LockKind::kMcs:
      return "mcs";
    case LockKind::kMcsH1:
      return "h1-mcs";
    case LockKind::kMcsH2:
      return "h2-mcs";
    case LockKind::kCna:
      return "cna";
    case LockKind::kHmcsT:
      return "hmcs-t";
    case LockKind::kFissile:
      return "fissile";
    case LockKind::kDrw:
      return "drwlock";
  }
  return "?";
}

std::unique_ptr<SimLock> MakeSimLock(Machine* machine, LockKind kind, ModuleId home) {
  switch (kind) {
    case LockKind::kSpin35us:
      return MakeSpinLock(machine, home, UsToTicks(35));
    case LockKind::kSpin2ms:
      return MakeSpinLock(machine, home, UsToTicks(2000));
    case LockKind::kMcs:
      return std::make_unique<SimMcsLock>(machine, home, McsVariant::kOriginal);
    case LockKind::kMcsH1:
      return std::make_unique<SimMcsLock>(machine, home, McsVariant::kH1);
    case LockKind::kMcsH2:
      return std::make_unique<SimMcsLock>(machine, home, McsVariant::kH2);
    case LockKind::kCna:
      return std::make_unique<SimCnaLock>(machine, home);
    case LockKind::kHmcsT:
      return std::make_unique<SimHmcsTLock>(machine, home);
    case LockKind::kFissile:
      return std::make_unique<SimFissileLock>(machine, home);
    case LockKind::kDrw:
      return std::make_unique<SimDrwLock>(machine, home);
  }
  return nullptr;
}

}  // namespace hsim
