#include "resources/cpu.h"

#include "util/check.h"

namespace psoodb::resources {

namespace {
// Jobs whose remaining work is below this (in instructions) are complete.
// Guards against floating-point drift when advancing to a computed
// completion instant. Must comfortably exceed rate * ulp(simulated time):
// a residual whose service time is below the clock's representable
// resolution would otherwise reschedule at the same timestamp forever.
constexpr double kEpsilonInst = 1e-2;
}  // namespace

Cpu::Cpu(sim::Simulation& sim, double mips)
    : sim_(sim),
      rate_(mips * 1e6),
      timer_(sim.RegisterTimer(
          [](void* self, std::uint64_t token) {
            static_cast<Cpu*>(self)->OnCompletion(token);
          },
          this)) {
  PSOODB_CHECK(mips > 0, "CPU rate must be positive, got %g MIPS", mips);
  last_advance_ = sim_.now();
  window_start_ = sim_.now();
}

Cpu::~Cpu() {
  // Orphan any remaining waiters (their frames may be destroyed later if the
  // owner tears the Simulation down after the resources; normally the
  // Simulation dies first and the lists are already empty).
  for (List* list : {&system_, &user_}) {
    while (!list->empty()) list->Remove(list->front());
  }
}

Cpu::Awaiter Cpu::System(double instructions) {
  ++system_requests_;
  return Awaiter(*this, instructions, /*system=*/true);
}

Cpu::Awaiter Cpu::User(double instructions) {
  ++user_requests_;
  return Awaiter(*this, instructions, /*system=*/false);
}

double Cpu::Utilization() const {
  // Include in-progress busy time up to "now" without mutating state.
  double busy = busy_time_;
  if (!system_.empty() || !user_.empty()) {
    busy += sim_.now() - last_advance_;
  }
  double elapsed = sim_.now() - window_start_;
  return elapsed > 0 ? busy / elapsed : 0.0;
}

void Cpu::ResetStats() {
  // Fold accrued progress first so busy_time_ restarts cleanly.
  Advance();
  busy_time_ = 0;
  window_start_ = sim_.now();
  system_requests_ = 0;
  user_requests_ = 0;
}

void Cpu::Advance() {
  const sim::SimTime now = sim_.now();
  double dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0) return;
  if (!system_.empty()) {
    // Only the head of the system FIFO progresses, at full rate.
    system_.front()->remaining -= dt * rate_;
    busy_time_ += dt;
  } else if (!user_.empty()) {
    // Processor sharing: all user jobs progress at rate/n.
    const double share = dt * rate_ / user_.size;
    for (Node* n = user_.head.next; n != &user_.head; n = n->next) {
      n->remaining -= share;
    }
    busy_time_ += dt;
  }
}

void Cpu::Reschedule() {
  token_ = 0;  // a pending completion, if any, now fires as a no-op
  if (system_.empty() && user_.empty()) return;  // idle
  double dt;
  if (!system_.empty()) {
    dt = system_.front()->remaining / rate_;
  } else {
    double min_remaining = user_.front()->remaining;
    for (Node* n = user_.head.next; n != &user_.head; n = n->next) {
      if (n->remaining < min_remaining) min_remaining = n->remaining;
    }
    dt = min_remaining * user_.size / rate_;
  }
  if (dt < 0) dt = 0;  // floating-point drift
  token_ = sim_.ScheduleTimer(sim_.now() + dt, timer_);
}

void Cpu::OnCompletion(std::uint64_t token) {
  if (token != token_) return;  // superseded
  Advance();
  // Wake the due jobs in place: the system head if it is due (user jobs make
  // no progress while it runs), otherwise every due user job in list order.
  Node* due = nullptr;  // forced-completion candidate if nothing is due
  bool woke = false;
  if (!system_.empty()) {
    due = system_.front();
    if (due->remaining <= kEpsilonInst) {
      Wake(due);
      woke = true;
    }
  } else {
    for (Node* n = user_.head.next; n != &user_.head;) {
      Node* next = n->next;
      if (n->remaining <= kEpsilonInst) {
        Wake(n);
        woke = true;
      } else if (due == nullptr || n->remaining < due->remaining) {
        due = n;
      }
      n = next;
    }
  }
  if (!woke && due != nullptr) {
    // This callback was scheduled for a completion, but the clock could not
    // advance far enough for the residual to drain (time resolution limit).
    // Force the due job to complete; the lost work is < kEpsilonInst.
    // Safe: the live completion only fires at the due instant computed for
    // the then-minimal job; membership changes supersede it.
    Wake(due);
  }
  Reschedule();
}

void Cpu::Wake(Node* n) {
  (n->system ? system_ : user_).Remove(n);
  n->sched = sim_.ScheduleNow(n->handle);
}

void Cpu::Enqueue(Node* n) {
  Advance();
  (n->system ? system_ : user_).PushBack(n);
  Reschedule();
}

void Cpu::Dequeue(Node* n) {
  Advance();
  (n->system ? system_ : user_).Remove(n);
  Reschedule();
}

Cpu::Awaiter::~Awaiter() {
  if (node_.linked()) {
    cpu_.Dequeue(&node_);
  } else if (node_.sched != 0 && !node_.fired) {
    cpu_.sim_.Cancel(node_.sched);
  }
}

}  // namespace psoodb::resources
