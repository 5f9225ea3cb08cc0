(** Human-readable traces of the personalization process — what the
    paper's examples show in prose: which preferences were selected with
    which degrees, how they were split into mandatory/optional, and the
    final SQL. *)

val path_line : Path.t -> string
(** One line: condition, degree, anchor. *)

val selection_report : Path.t list -> string
(** Numbered list of selected preferences, decreasing degree. *)

val outcome_report : Personalize.outcome -> string
(** Full trace: selected preferences, mandatory/optional split,
    selection statistics and the personalized SQL (pretty-printed). *)
