(** Simulated packets (sizes in bytes, per-flow sequence numbers). *)

type kind =
  | Data
  | Ack of { acked : int; dup : bool }
  | Feedback of {
      p_estimate : float;
      recv_rate : float;
      rtt_echo : float;
      hold : float;
    }

type t = {
  flow : int;
  seq : int;
  size : int;
  kind : kind;
  f : float array;  (** [0] = origination time; use {!sent_at}. *)
}

val sent_at : t -> float
(** Origination time, for RTT samples. *)

val data : flow:int -> seq:int -> size:int -> sent_at:float -> t
(** A [Data] packet. Raises [Invalid_argument] unless [size > 0]. *)

val dummy : t
(** Placeholder for preallocated buffers. *)

val copy : t -> t
(** Deep copy (fresh record and timestamp cell); used by fault
    injection to duplicate packets without aliasing the original's
    state. *)

val ack : flow:int -> seq:int -> acked:int -> dup:bool -> sent_at:float -> t
(** 40-byte acknowledgment; [acked] is the cumulative ACK number. *)

val feedback :
  flow:int -> seq:int -> p_estimate:float -> recv_rate:float ->
  rtt_echo:float -> hold:float -> sent_at:float -> t
(** TFRC receiver report (40 bytes). [hold] is the time the echoed data
    timestamp was held at the receiver, so the sender can exclude it
    from the RTT sample. *)

val is_data : t -> bool
val bits : t -> int
