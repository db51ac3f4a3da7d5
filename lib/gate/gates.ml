(* Every gate under `dune build @gates`, in alias order. *)

module Gate = Gate
module Crash_gate = Crash_gate
module Perf_gate = Perf_gate

let all =
  [
    Check_gate.gate;
    Crash_gate.gate;
    Chaos_gate.gate;
    Perf_gate.gate;
    Race_gate.gate;
    Serve_gate.gate;
    Obs_gate.gate;
  ]
