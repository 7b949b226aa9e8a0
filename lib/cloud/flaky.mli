(** Transient-fault injection over the {!Arm} simulator.

    The real Azure control plane is not an infallible
    [Program.t -> outcome] function: it throttles (HTTP 429 with
    [Retry-After]), times out state-synchronization reads, loses async
    polling operations, and races concurrent deployments on shared
    quota. All of these are {e transient} — retrying the same request
    eventually observes the genuine outcome — and none of them say
    anything about the program's semantic validity.

    [Flaky] wraps {!Arm.deploy} with a seeded fault process so the
    validation layers above can be exercised against a misbehaving
    cloud while the ground truth stays recoverable:

    - every call either injects a {!fault} (classified by kind and by
      the deployment phase in which it surfaces) or passes through to
      the genuine simulator;
    - fault injection is deterministic in [seed] and the call sequence;
    - bursts are bounded: after [max_consecutive] faults in a row for
      the same program the next call passes through, modelling the
      fact that Azure throttling windows and polling flakes clear.
      A client with a retry budget larger than [max_consecutive] is
      therefore {e guaranteed} to recover the genuine outcome, which
      is what makes verdict stability under faults provable rather
      than merely probable. *)

type kind =
  | Throttled  (** HTTP 429 on the create request *)
  | Timeout  (** state-synchronization read timed out *)
  | Polling_flake  (** async provisioning poll lost or expired *)
  | Quota_race  (** concurrent deployment transiently consumed quota *)

val kind_to_string : kind -> string

val kind_phase : kind -> Rules.phase
(** Deployment phase in which each fault kind surfaces. *)

type fault = {
  kind : kind;
  phase : Rules.phase;
  retry_after : float;  (** server-suggested delay, simulated seconds *)
}

type response =
  | Outcome of Arm.outcome  (** the genuine simulator verdict *)
  | Fault of fault  (** transient failure; retrying may succeed *)

type config = {
  seed : int;
  fault_rate : float;  (** per-call injection probability in [0,1] *)
  max_consecutive : int;
      (** forced pass-through after this many consecutive faults for
          the same program ([>= 1]) *)
}

val default_config : config
(** Nonzero fault rate (0.15), [max_consecutive = 3], seed 7. *)

type t

val create :
  provider:Zodiac_provider.Provider.t ->
  ?rules:Rules.t list ->
  ?quota:Quota.t ->
  config ->
  t
(** [provider]/[rules]/[quota] are forwarded to {!Arm.deploy}. *)

val deploy : t -> Zodiac_iac.Program.t -> response

val injected : t -> int
(** Total faults injected so far. *)

