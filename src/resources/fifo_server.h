/// \file fifo_server.h
/// A single FIFO server with per-request service times. Shared implementation
/// for the disk and network models (both are plain FIFO queues in the paper).

#ifndef PSOODB_RESOURCES_FIFO_SERVER_H_
#define PSOODB_RESOURCES_FIFO_SERVER_H_

#include <coroutine>
#include <cstdint>

#include "sim/simulation.h"
#include "util/check.h"

namespace psoodb::resources {

/// FIFO single-server queue. `co_await server.Serve(t)` waits for all queued
/// requests ahead of it, then for `t` seconds of service. The awaiter holds
/// the queue node, so a wait needs no coroutine frame of its own; callers
/// may return it by value (guaranteed elision) for their callers to await.
class FifoServer {
 public:
  explicit FifoServer(sim::Simulation& sim) : sim_(sim) {
    head_.prev = head_.next = &head_;
    window_start_ = sim_.now();
  }
  ~FifoServer() {
    // Safety net only: the intended teardown order is Simulation first (which
    // empties these queues via awaitable destructors). If the server dies
    // first, orphan remaining nodes without scheduling anything.
    ++generation_;
    in_service_ = nullptr;
    for (Node* n = head_.next; n != &head_;) {
      Node* next = n->next;
      n->prev = n->next = nullptr;
      n = next;
    }
    head_.prev = head_.next = &head_;
  }
  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  class Awaiter;
  /// [[nodiscard]]: a dropped awaiter never queues, so the wait is skipped.
  [[nodiscard]] Awaiter Serve(double service_time);

  double Utilization() const {
    double busy = busy_time_;
    if (in_service_ != nullptr) busy += sim_.now() - service_started_;
    double elapsed = sim_.now() - window_start_;
    return elapsed > 0 ? busy / elapsed : 0.0;
  }
  void ResetStats() {
    busy_time_ = 0;
    // Only the part of the current service after the reset counts.
    if (in_service_ != nullptr) service_started_ = sim_.now();
    window_start_ = sim_.now();
    requests_ = 0;
  }

  std::uint64_t requests() const { return requests_; }
  int queue_length() const { return size_; }

 private:
  struct Node {
    Node* prev = nullptr;
    Node* next = nullptr;
    double service = 0;
    std::coroutine_handle<> handle;
    sim::EventId sched = 0;
    bool fired = false;
    bool linked() const { return prev != nullptr; }
  };

  void Push(Node* n) {
    n->prev = head_.prev;
    n->next = &head_;
    head_.prev->next = n;
    head_.prev = n;
    ++size_;
    if (in_service_ == nullptr) StartNext();
  }

  void Remove(Node* n) {
    const bool was_in_service = (n == in_service_);
    n->prev->next = n->next;
    n->next->prev = n->prev;
    n->prev = n->next = nullptr;
    --size_;
    if (was_in_service) {
      busy_time_ += sim_.now() - service_started_;
      in_service_ = nullptr;
      ++generation_;  // cancel pending completion
      StartNext();
    }
  }

  void StartNext() {
    Node* n = head_.next;
    if (n == &head_) return;
    in_service_ = n;
    service_started_ = sim_.now();
    const std::uint64_t gen = ++generation_;
    sim_.ScheduleCallback(sim_.now() + n->service, [this, gen]() {
      if (gen != generation_) return;
      Node* done = in_service_;
      busy_time_ += sim_.now() - service_started_;
      in_service_ = nullptr;
      // Unlink without re-triggering the in-service path of Remove().
      done->prev->next = done->next;
      done->next->prev = done->prev;
      done->prev = done->next = nullptr;
      --size_;
      done->sched = sim_.ScheduleNow(done->handle);
      StartNext();
    });
  }

  sim::Simulation& sim_;
  Node head_;  // sentinel; front is in service when in_service_ != nullptr
  int size_ = 0;
  Node* in_service_ = nullptr;
  sim::SimTime service_started_ = 0;
  std::uint64_t generation_ = 0;
  double busy_time_ = 0;
  sim::SimTime window_start_ = 0;
  std::uint64_t requests_ = 0;

  friend class Awaiter;
};

class FifoServer::Awaiter {
 public:
  Awaiter(FifoServer& server, double service_time)
      : server_(server) {
    node_.service = service_time;
  }
  Awaiter(const Awaiter&) = delete;
  Awaiter& operator=(const Awaiter&) = delete;
  ~Awaiter() {
    if (node_.linked()) {
      server_.Remove(&node_);
    } else if (node_.sched != 0 && !node_.fired) {
      server_.sim_.Cancel(node_.sched);
    }
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    node_.handle = h;
    server_.Push(&node_);
  }
  void await_resume() noexcept { node_.fired = true; }

 private:
  FifoServer& server_;
  Node node_;
};

inline FifoServer::Awaiter FifoServer::Serve(double service_time) {
  PSOODB_DCHECK(service_time >= 0, "negative service time");
  ++requests_;
  return Awaiter(*this, service_time);
}

}  // namespace psoodb::resources

#endif  // PSOODB_RESOURCES_FIFO_SERVER_H_
