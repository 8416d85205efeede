// Execute any planner program on real threads.
//
// Every node of the cube runs as a thread; phases are separated by
// barriers; messages are forwarded store-and-forward along their routes
// by the intermediate node threads (each node knows from the plan how
// many messages it must sink or forward per phase, so the receive loops
// terminate without global coordination).
//
// Two entry points:
//  * execute_program_threads       — element-id payloads; the final node
//    memories are bit-identical to the simulator's, demonstrating the
//    planner programs are real SPMD message-passing programs;
//  * execute_program_threads_on<T> — arbitrary payloads (e.g. doubles):
//    the program acts as a data-movement plan for application data, the
//    mode the examples use (ADI sweeps, FFT transposes).
#pragma once

#include <cassert>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "runtime/channel.hpp"
#include "runtime/ensemble.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/program.hpp"
#include "topology/hypercube.hpp"
#include "topology/topology.hpp"

namespace nct::runtime {

/// Run `program` from `initial` with one thread per node; returns the
/// final node memories (same data semantics as sim::Engine / apply_data).
sim::Memory execute_program_threads(const sim::Program& program, sim::Memory initial);

/// Same, but with transient faults injected: hops over a refusing link
/// retry with exponential backoff until the link recovers, bounded by
/// `retry.max_retries` attempts and `retry.timeout` wall-clock seconds
/// per hop.  Data is never lost — the final memories match the healthy
/// run — but if any hop exhausts its budget the run throws
/// fault::FaultError after all threads finish (see fault_injector.hpp).
sim::Memory execute_program_threads(const sim::Program& program, sim::Memory initial,
                                    FaultInjector& faults, fault::RetryPolicy retry = {});

namespace detail {

/// Shared implementation.  `Clear` is invoked on vacated slots (the word
/// instantiation writes kEmptySlot; value payloads leave slots stale —
/// every slot the program later reads is written first).
template <class T, class Clear>
std::vector<std::vector<T>> run_threads(const sim::Program& program,
                                        std::vector<std::vector<T>> memory, Clear clear,
                                        FaultInjector* inj = nullptr,
                                        fault::RetryPolicy retry = {}) {
  const cube::word nnodes = program.nodes();
  if (memory.size() != nnodes) throw std::invalid_argument("memory/node count mismatch");
  const auto topology = topo::make_topology(program.topology, program.n);
  const int ports = topology->ports();

  // Route and destination slots view the program, which outlives the run.
  struct Packet {
    std::span<const int> route;
    std::size_t hop = 0;
    std::span<const sim::slot> dst_slots;
    std::vector<T> payload;
  };

  // Per-phase, per-node counts and op lists (deliveries plus forwards);
  // a node's sends are indices into its phase's SendList.
  const std::size_t nphases = program.phases.size();
  std::vector<std::vector<std::size_t>> incoming(
      nphases, std::vector<std::size_t>(static_cast<std::size_t>(nnodes), 0));
  std::vector<std::vector<std::vector<std::size_t>>> sends_by_node(
      nphases, std::vector<std::vector<std::size_t>>(static_cast<std::size_t>(nnodes)));
  std::vector<std::vector<std::vector<const sim::CopyOp*>>> pre_by_node(
      nphases, std::vector<std::vector<const sim::CopyOp*>>(static_cast<std::size_t>(nnodes)));
  std::vector<std::vector<std::vector<const sim::CopyOp*>>> post_by_node(
      nphases, std::vector<std::vector<const sim::CopyOp*>>(static_cast<std::size_t>(nnodes)));

  for (std::size_t ph = 0; ph < nphases; ++ph) {
    const auto& phase = program.phases[ph];
    for (std::size_t i = 0; i < phase.sends.size(); ++i) {
      const sim::SendOp op = phase.sends[i];
      sends_by_node[ph][static_cast<std::size_t>(op.src)].push_back(i);
      cube::word cur = op.src;
      for (const int d : op.route) {
        cur = topology->neighbor(cur, d);
        if (cur == topo::kNoNode)
          throw std::invalid_argument("program route crosses an unwired port");
        incoming[ph][static_cast<std::size_t>(cur)] += 1;
      }
    }
    for (const auto& op : phase.pre_copies) {
      pre_by_node[ph][static_cast<std::size_t>(op.node)].push_back(&op);
    }
    for (const auto& op : phase.post_copies) {
      post_by_node[ph][static_cast<std::size_t>(op.node)].push_back(&op);
    }
  }

  std::vector<Channel<Packet>> inbox(static_cast<std::size_t>(nnodes));

  if (inj != nullptr && (inj->dimensions() != ports || inj->nodes() != nnodes))
    throw std::invalid_argument("fault injector / program dimension mismatch");

  Ensemble ensemble(nnodes, ports);
  ensemble.run([&](NodeCtx& ctx) {
    const cube::word me = ctx.rank();
    auto& local = memory[static_cast<std::size_t>(me)];

    // Forward `pk` over its next hop, retrying with exponential backoff
    // while the injector refuses the link.  Always delivers (dropping
    // would deadlock the planned receive loops); budget overruns are
    // recorded and surfaced after the ensemble completes.
    const auto forward = [&](Packet&& pk) {
      const int dim = pk.route[pk.hop];
      if (inj != nullptr) {
        const std::size_t li = topology->link_index(me, dim);
        const auto start = std::chrono::steady_clock::now();
        auto delay = std::chrono::microseconds{1};
        int tries = 0;
        while (!inj->try_acquire(li)) {
          const double waited =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
          if (++tries > retry.max_retries || waited > retry.timeout) {
            inj->note_give_up();
            break;
          }
          std::this_thread::sleep_for(delay);
          delay = std::min(delay * 2, std::chrono::microseconds{256});
        }
      }
      const cube::word next = topology->neighbor(me, dim);
      pk.hop += 1;
      inbox[static_cast<std::size_t>(next)].send(std::move(pk));
    };

    const auto apply_copy = [&](const sim::CopyOp& op) {
      std::vector<T> values(op.src_slots.size());
      for (std::size_t i = 0; i < op.src_slots.size(); ++i) {
        values[i] = local[static_cast<std::size_t>(op.src_slots[i])];
      }
      for (const sim::slot s : op.src_slots) clear(local[static_cast<std::size_t>(s)]);
      for (std::size_t i = 0; i < op.dst_slots.size(); ++i) {
        local[static_cast<std::size_t>(op.dst_slots[i])] = values[i];
      }
    };

    for (std::size_t ph = 0; ph < nphases; ++ph) {
      for (const auto* op : pre_by_node[ph][static_cast<std::size_t>(me)]) apply_copy(*op);

      // Read all outgoing payloads before any arrival can land
      // (snapshot semantics: only this thread writes this memory).
      const sim::SendList& sends = program.phases[ph].sends;
      const auto& mine = sends_by_node[ph][static_cast<std::size_t>(me)];
      std::vector<Packet> outgoing;
      for (const std::size_t i : mine) {
        const sim::SendOp op = sends[i];
        Packet pk;
        pk.route = op.route;
        pk.hop = 0;
        pk.dst_slots = op.dst_slots;
        pk.payload.reserve(op.src_slots.size());
        for (const sim::slot s : op.src_slots) {
          pk.payload.push_back(local[static_cast<std::size_t>(s)]);
        }
        outgoing.push_back(std::move(pk));
      }
      for (const std::size_t i : mine) {
        const sim::SendOp op = sends[i];
        if (op.keep_source) continue;
        for (const sim::slot s : op.src_slots) clear(local[static_cast<std::size_t>(s)]);
      }
      for (auto& pk : outgoing) forward(std::move(pk));

      // Sink or forward exactly the planned number of packets.
      for (std::size_t r = 0; r < incoming[ph][static_cast<std::size_t>(me)]; ++r) {
        Packet pk = inbox[static_cast<std::size_t>(me)].recv();
        if (pk.hop == pk.route.size()) {
          for (std::size_t i = 0; i < pk.dst_slots.size(); ++i) {
            local[static_cast<std::size_t>(pk.dst_slots[i])] = pk.payload[i];
          }
        } else {
          forward(std::move(pk));
        }
      }

      for (const auto* op : post_by_node[ph][static_cast<std::size_t>(me)]) apply_copy(*op);

      ctx.barrier();
    }
  });

  if (inj != nullptr && inj->give_ups() > 0) {
    throw fault::FaultError("runtime: " + std::to_string(inj->give_ups()) +
                            " hop(s) exhausted their retry budget");
  }
  return memory;
}

}  // namespace detail

/// Run a program as a data-movement plan for application payloads of
/// type T (one value per slot).
template <class T>
std::vector<std::vector<T>> execute_program_threads_on(const sim::Program& program,
                                                       std::vector<std::vector<T>> initial) {
  return detail::run_threads<T>(program, std::move(initial), [](T&) {});
}

}  // namespace nct::runtime
