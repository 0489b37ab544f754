#include "runtime/faults.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace fit::runtime {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::KillRank: return "kill-rank";
    case FaultKind::KillNode: return "kill-node";
    case FaultKind::TransientOp: return "transient-op";
    case FaultKind::CapacityShrink: return "capacity-shrink";
    case FaultKind::NetDegrade: return "net-degrade";
    case FaultKind::DiskDegrade: return "disk-degrade";
    case FaultKind::CkptCorrupt: return "ckpt-corrupt";
    case FaultKind::CkptIo: return "ckpt-io";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultInjector& other) {
  std::lock_guard<std::mutex> lock(other.mutex_);
  seed_ = other.seed_;
  kill_prob_ = other.kill_prob_;
  op_prob_ = other.op_prob_;
  ckpt_io_prob_ = other.ckpt_io_prob_;
  plan_ = other.plan_;
}

FaultInjector& FaultInjector::operator=(const FaultInjector& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  seed_ = other.seed_;
  kill_prob_ = other.kill_prob_;
  op_prob_ = other.op_prob_;
  ckpt_io_prob_ = other.ckpt_io_prob_;
  plan_ = other.plan_;
  return *this;
}

void FaultInjector::schedule(const FaultEvent& ev) {
  FIT_REQUIRE(ev.factor > 0, "fault factor must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  plan_.push_back(ev);
}

void FaultInjector::set_kill_prob(double p) {
  FIT_REQUIRE(p >= 0 && p <= 1, "kill probability out of [0, 1]");
  kill_prob_ = p;
}

void FaultInjector::set_op_failure_prob(double p) {
  FIT_REQUIRE(p >= 0 && p <= 1, "op failure probability out of [0, 1]");
  op_prob_ = p;
}

void FaultInjector::set_ckpt_io_prob(double p) {
  FIT_REQUIRE(p >= 0 && p <= 1,
              "checkpoint I/O failure probability out of [0, 1]");
  ckpt_io_prob_ = p;
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kill_prob_ > 0 || op_prob_ > 0 || ckpt_io_prob_ > 0 ||
         !plan_.empty();
}

bool FaultInjector::can_fail_ops(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (op_prob_ > 0) return true;
  return std::any_of(plan_.begin(), plan_.end(), [&](const FaultEvent& ev) {
    return ev.kind == FaultKind::TransientOp && ev.phase == phase &&
           ev.count > 0;
  });
}

namespace {

bool is_kill(FaultKind k) {
  return k == FaultKind::KillRank || k == FaultKind::KillNode;
}

}  // namespace

std::vector<FaultEvent> FaultInjector::take_boundary_faults(
    std::size_t phase) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultEvent> fired;
  auto it = plan_.begin();
  while (it != plan_.end()) {
    const bool boundary = it->kind != FaultKind::TransientOp &&
                          it->kind != FaultKind::CkptIo &&
                          !(is_kill(it->kind) && it->attempt > 0);
    if (boundary && it->phase == phase) {
      fired.push_back(*it);
      it = plan_.erase(it);
    } else {
      ++it;
    }
  }
  return fired;
}

std::vector<FaultEvent> FaultInjector::take_retry_kills(
    std::size_t phase, std::size_t attempt) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultEvent> fired;
  auto it = plan_.begin();
  while (it != plan_.end()) {
    if (is_kill(it->kind) && it->phase == phase && it->attempt > 0 &&
        it->attempt == attempt) {
      fired.push_back(*it);
      it = plan_.erase(it);
    } else {
      ++it;
    }
  }
  return fired;
}

double FaultInjector::roll(std::uint64_t tag, std::uint64_t a,
                           std::uint64_t b, std::uint64_t c) const {
  // hash_to_unit is [-1, 1); fold to [0, 1).
  return 0.5 * (hash_to_unit(seed_ ^ (tag * 0x9E3779B97F4A7C15ull), a, b,
                             c) +
                1.0);
}

bool FaultInjector::kill_roll(std::size_t phase, std::size_t rank) const {
  if (kill_prob_ <= 0) return false;
  return roll(1, phase, rank, 0) < kill_prob_;
}

bool FaultInjector::should_fail_op(std::size_t phase, std::size_t attempt,
                                   std::size_t rank, std::size_t op_seq) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& ev : plan_) {
      if (ev.kind != FaultKind::TransientOp || ev.phase != phase ||
          ev.rank != rank || ev.count == 0)
        continue;
      --ev.count;
      return true;
    }
  }
  if (op_prob_ <= 0) return false;
  return roll(2, phase * 64 + attempt, rank, op_seq) < op_prob_;
}

bool FaultInjector::should_fail_ckpt_io(std::size_t phase,
                                        std::size_t attempt,
                                        std::size_t op_seq) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& ev : plan_) {
      // A CkptIo budget arms at its phase and drains on the next
      // `count` checkpoint operations, whenever they happen.
      if (ev.kind != FaultKind::CkptIo || ev.phase > phase ||
          ev.count == 0)
        continue;
      --ev.count;
      return true;
    }
  }
  if (ckpt_io_prob_ <= 0) return false;
  return roll(3, phase * 64 + attempt, op_seq, 0) < ckpt_io_prob_;
}

double FaultInjector::corrupt_weight(std::size_t phase,
                                     std::size_t generation,
                                     std::uint64_t array_tag,
                                     std::size_t tile) const {
  return roll(4, phase * 64 + generation, array_tag, tile);
}

}  // namespace fit::runtime
