/// \file cpu.h
/// CPU model with the paper's two-level priority scheme (Section 4.1):
/// *system* requests (lock handling, message protocol processing, I/O
/// initiation) are served FIFO and take absolute priority over *user*
/// requests, which share the processor via processor sharing.

#ifndef PSOODB_RESOURCES_CPU_H_
#define PSOODB_RESOURCES_CPU_H_

#include <coroutine>
#include <cstdint>

#include "sim/simulation.h"

namespace psoodb::resources {

/// A simulated CPU. Request costs are expressed in instructions; the rate is
/// expressed in MIPS, matching the paper's parameter tables.
///
/// Usage from a simulation process:
///   co_await cpu.System(params.fixed_msg_inst);   // FIFO, high priority
///   co_await cpu.User(cost_of_object_processing); // processor sharing
class Cpu {
 public:
  Cpu(sim::Simulation& sim, double mips);
  ~Cpu();
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  class Awaiter;

  /// High-priority FIFO request for `instructions` of CPU work.
  Awaiter System(double instructions);

  /// Low-priority processor-sharing request for `instructions` of CPU work.
  Awaiter User(double instructions);

  /// Fraction of time busy since the last ResetStats().
  double Utilization() const;

  /// Restarts the measurement window (for warmup discard).
  void ResetStats();

  std::uint64_t system_requests() const { return system_requests_; }
  std::uint64_t user_requests() const { return user_requests_; }
  double mips() const { return rate_ / 1e6; }

  /// Number of queued-or-running requests (for tests).
  int active_jobs() const { return system_.size + user_.size; }

 private:
  struct Node {
    Node* prev = nullptr;
    Node* next = nullptr;
    double remaining = 0;  // instructions left
    std::coroutine_handle<> handle;
    bool system = false;
    sim::EventId sched = 0;  // wakeup event once completed
    bool fired = false;
    bool linked() const { return prev != nullptr; }
  };

  struct List {
    Node head;  // sentinel
    int size = 0;
    List() { head.prev = head.next = &head; }
    bool empty() const { return head.next == &head; }
    void PushBack(Node* n) {
      n->prev = head.prev;
      n->next = &head;
      head.prev->next = n;
      head.prev = n;
      ++size;
    }
    void Remove(Node* n) {
      n->prev->next = n->next;
      n->next->prev = n->prev;
      n->prev = n->next = nullptr;
      --size;
    }
    Node* front() { return empty() ? nullptr : head.next; }
  };

  /// Accrues progress on the active jobs from last_advance_ to now().
  void Advance();
  /// (Re)schedules the next-completion callback.
  void Reschedule();
  /// Completion callback: finish all due jobs, wake them, reschedule.
  void OnCompletion(std::uint64_t generation);
  /// Unlinks a finished job and schedules its resumption.
  void Wake(Node* n);

  void Enqueue(Node* n);
  void Dequeue(Node* n);

  sim::Simulation& sim_;
  double rate_;  // instructions per second

  List system_;  // FIFO; only the head makes progress
  List user_;    // processor sharing across all members

  sim::SimTime last_advance_ = 0;
  double busy_time_ = 0;
  sim::SimTime window_start_ = 0;

  std::uint64_t generation_ = 0;  // invalidates stale completion callbacks
  std::uint64_t system_requests_ = 0;
  std::uint64_t user_requests_ = 0;

  friend class Awaiter;
};

class Cpu::Awaiter {
 public:
  Awaiter(Cpu& cpu, double instructions, bool system) : cpu_(cpu) {
    node_.remaining = instructions;
    node_.system = system;
  }
  Awaiter(const Awaiter&) = delete;
  Awaiter& operator=(const Awaiter&) = delete;
  ~Awaiter();

  bool await_ready() const noexcept { return node_.remaining <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    node_.handle = h;
    cpu_.Enqueue(&node_);
  }
  void await_resume() noexcept { node_.fired = true; }

 private:
  friend class Cpu;
  Cpu& cpu_;
  Node node_;
};

}  // namespace psoodb::resources

#endif  // PSOODB_RESOURCES_CPU_H_
