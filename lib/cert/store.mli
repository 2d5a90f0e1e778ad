(** Content-addressed certificate store.

    Artifacts live under [root/<fingerprint>/], where [<fingerprint>] is the
    combined problem fingerprint ({!Artifact.fingerprint}): the directory
    name {e is} the content address, so a stored certificate can only ever
    be looked up by the exact problem it proves.  Each entry holds

    - [cert.txt] — the artifact ({!Artifact.to_string}, checksummed), and
    - [network.nn] — optionally, the controller it was proved for, making
      the entry self-contained: [safebarrier check <dir>] can rebuild the
      closed-loop system and re-prove the conditions with no other input.

    Writes go through a temp file + rename, so a crashed writer leaves no
    half-written [cert.txt] behind. *)

type entry = {
  artifact : Artifact.t;
  dir : string;  (** directory the entry was loaded from *)
  network : Nn.t option;  (** contents of [network.nn], when present *)
}

type error =
  | Missing  (** no such entry *)
  | Corrupt of string
      (** the entry exists but fails validation: artifact checksum/format
          errors, or an unreadable [network.nn] *)

val string_of_error : error -> string

val cert_file : string
(** ["cert.txt"] *)

val network_file : string
(** ["network.nn"] *)

val dir_of : root:string -> string -> string
(** [dir_of ~root fingerprint] is the entry directory (whether or not it
    exists). *)

val save : root:string -> ?network:Nn.t -> Artifact.t -> string
(** Write (or overwrite) the entry for the artifact's fingerprint; creates
    [root] as needed.  Returns the entry directory. *)

val load : root:string -> string -> (entry, error) result
(** [load ~root fingerprint] reads one entry. *)

val load_dir : string -> (entry, error) result
(** Read an entry directly from its directory (the [check] CLI path). *)

val list : root:string -> string list
(** Fingerprints present under [root], sorted ([] for a missing root). *)

(** {1 Integrity scan}

    A daemon serves from the store for its whole lifetime, so a corrupt
    entry must be found {e before} it is ever offered as a cache hit or a
    warm-start donor.  [fsck] walks every entry and classifies it; with
    [~quarantine:true] bad entries are moved aside (into
    [root/.quarantine/]) so later lookups cannot see them — quarantined,
    never served, and kept on disk for post-mortems.

    The scan is safe against concurrent writers: [Store.save] goes through
    temp-file + rename, so a reader sees either the old or the new
    complete entry, never a torn one, and in-progress temp files
    ([cert*.tmp]) are invisible to the scan.  A directory holding only
    [network.nn] (a writer that has not yet renamed its [cert.txt], or
    died before doing so) does not exist as an entry and is skipped. *)

type fsck_issue =
  | Corrupt_entry of string
      (** checksum mismatch, unparseable artifact, or unreadable
          [network.nn] (the {!load} [Corrupt] reasons) *)
  | Address_mismatch of string
      (** the entry directory name differs from the artifact's recorded
          combined fingerprint (payload: the recorded one) — the entry
          would be served for the wrong problem *)
  | Missing_network
      (** the artifact records an [nn_hash] but the entry has no
          [network.nn] alongside it *)
  | Network_mismatch of string
      (** [network.nn] is present but hashes to the payload, not the
          artifact's recorded [nn_hash] *)
  | Fingerprint_mismatch of { field : string; got : string }
      (** a recorded fingerprint component is not the digest of what it
          claims to digest: [field = "plant"] when the plant identity line
          was tampered without its [plant-hash] following (or vice versa),
          [field = "combined"] when the combined address no longer digests
          the four components.  [got] is the recomputed value. *)

val string_of_issue : fsck_issue -> string

type fsck_finding = {
  fingerprint : string;  (** entry directory name *)
  issue : fsck_issue;
  quarantined_to : string option;
      (** where the entry was moved, when quarantine was requested and the
          move succeeded *)
}

type fsck_report = {
  scanned : int;  (** entries examined *)
  healthy : int;
  findings : fsck_finding list;  (** bad entries, in fingerprint order *)
}

val fsck : ?quarantine:bool -> ?on_entry:(string -> unit) -> root:string -> unit -> fsck_report
(** Scan every entry under [root].  [quarantine] (default false) moves bad
    entries into [root/.quarantine], which {!list} never lists, so
    quarantined entries are invisible to lookups.  [on_entry] is a test
    hook called with each fingerprint {e before} that entry is validated
    (used to interleave concurrent saves mid-scan); it defaults to a
    no-op. *)

val find_nearby : root:string -> Artifact.fingerprint -> entry option
(** First (in sorted fingerprint order, for determinism) readable entry
    whose [config_hash] {e and} [plant_hash] both match the probe but whose
    combined fingerprint differs — i.e. the same plant, parameters,
    rectangles, template and solver options on a {e different} network.
    These are the warm-start donors: their coefficient vectors are
    plausible candidates for the probe's problem.  An entry for a different
    plant or parameterization is never a donor, even when its config hash
    matches.  Corrupt entries are skipped, never reported. *)
