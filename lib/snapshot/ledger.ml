(* Per-process event ledger: the part of a process's history that the
   harness oracles need, recorded locally (each process appends only its
   own protocol events) so that a snapshot of process state carries it.
   The union of the ledgers across a consistent cut is then a faithful
   prefix of the run's event history, which is what lets cut oracles
   re-express the omniscient once-and-only-once / invalid-budget checks
   as functions of cut sequences.

   Immutable on purpose: capturing a ledger into a cut is sharing a
   value, not copying mutable state, so later appends can never alias
   into an already-captured cut. *)

type t = {
  generated : (int * int * int) list;  (* (gid, dest, pulse), newest first *)
  delivered : (int * int) list;  (* (gid, pulse), valid deliveries only *)
  invalid : int list;  (* pulses of invalid deliveries at self *)
  n_generated : int;
  n_delivered : int;
  n_invalid : int;
}

let empty =
  {
    generated = [];
    delivered = [];
    invalid = [];
    n_generated = 0;
    n_delivered = 0;
    n_invalid = 0;
  }

let observe t ~pulse (ev : Ssmfp.Protocol.event) =
  match ev with
  | Generated (m, dest) ->
      {
        t with
        generated = (m.Ssmfp.Message.ghost.gid, dest, pulse) :: t.generated;
        n_generated = t.n_generated + 1;
      }
  | Delivered m ->
      if Ssmfp.Message.is_valid m then
        {
          t with
          delivered = (m.Ssmfp.Message.ghost.gid, pulse) :: t.delivered;
          n_delivered = t.n_delivered + 1;
        }
      else { t with invalid = pulse :: t.invalid; n_invalid = t.n_invalid + 1 }
  | Internal_forward _ | Copied _ | Erased_after_forward _ | Erased_duplicate _
  | Routing_update _ ->
      t

let generated t = List.rev t.generated
let delivered t = List.rev t.delivered
let invalid t = List.rev t.invalid

let encode c t =
  Mc.Codec.add_int c t.n_generated;
  List.iter
    (fun (gid, dest, pulse) ->
      Mc.Codec.add_int c gid;
      Mc.Codec.add_int c dest;
      Mc.Codec.add_int c pulse)
    t.generated;
  Mc.Codec.add_int c t.n_delivered;
  List.iter
    (fun (gid, pulse) ->
      Mc.Codec.add_int c gid;
      Mc.Codec.add_int c pulse)
    t.delivered;
  Mc.Codec.add_int c t.n_invalid;
  List.iter (fun pulse -> Mc.Codec.add_int c pulse) t.invalid
