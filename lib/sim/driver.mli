(** Entry point behind [perso_cli sim] and [make sim].

    Modes, chosen by {!options}:
    {ul
    {- default: [runs] scenario simulations at seeds [seed], [seed+1],
       … plus the {!Oracle} layer — exit 0 iff everything passes;}
    {- [steps = Some s]: replay exactly that encoded step list under
       [seed] (the command printed on every failure);}
    {- [mutate = true]: self-test — inject the ledger bug
       ({!Perso_server.Server_core.mutate_drop_completed_ok}), require
       a generated scenario to catch it and the shrunk repro to fit in
       10 steps.}}

    Every failure prints an exact
    [perso_cli sim --seed N --steps '…'] replay line. *)

type options = {
  seed : int;
  runs : int;
  steps : string option;  (** encoded step list to replay verbatim *)
  mutate : bool;
  oracle_cases : int;  (** 0 skips the oracle layer *)
  oracle_movies : int;
  oracle_selections : int;
}

val main : options -> int
(** Runs the selected mode, printing deterministic one-line reports to
    stdout; returns the process exit code (0 pass, 1 fail, 2 bad
    [--steps]). *)
