(** The IaC resource graph.

    Nodes are resources; a directed edge runs from the {e referencing}
    resource (whose attribute is an {e inbound endpoint}) to the
    {e referenced} resource (whose attribute is an {e outbound
    endpoint}): [conn(NIC.b.subnet_id -> SUBNET.a.id)] is an edge
    [NIC.b -> SUBNET.a].

    Degree conventions (see DESIGN.md — the paper's §3.2 prose and
    Table 2 disagree; we follow the reading consistent with Table 2):
    - [indegree g r ty] counts edges leaving [r]'s inbound endpoints,
      i.e. resources of type [ty] that [r] references;
    - [outdegree g r ty] counts edges arriving at [r]'s outbound
      endpoints, i.e. resources of type [ty] referencing [r]. *)

type edge = {
  src : Resource.id;  (** referencing resource *)
  src_attr : string;  (** inbound endpoint (dotted attribute path) *)
  dst : Resource.id;  (** referenced resource *)
  dst_attr : string;  (** outbound endpoint *)
}

type type_spec = Type of string | Not_type of string
(** [τ] of the grammar: a resource type or its complement [!t]. *)

type t

val build : Program.t -> t
(** Derive the graph; dangling references produce no edge. *)

val program : t -> Program.t

val by_type : t -> string -> Resource.t list
(** [Program.by_type] of the graph's program, through an index built on
    the first call (domain-safe) so that evaluating many checks on one
    graph reads each type's resources without scanning the program. *)

val edges : t -> edge list
val nodes : t -> Resource.id list

val edges_from : t -> Resource.id -> edge list
(** Edges whose [src] is the given resource. *)

val edges_to : t -> Resource.id -> edge list
(** Edges whose [dst] is the given resource. *)

val conn : t -> src:Resource.id -> src_attr:string -> dst:Resource.id -> dst_attr:string -> bool
(** Does the specific edge exist? *)

val connected : t -> Resource.id -> Resource.id -> bool
(** Some edge from the first to the second resource, any endpoints. *)

val path : t -> Resource.id -> Resource.id -> bool
(** Reachability following edge direction (reflexive on equal ids only
    when a cycle exists; a resource has no trivial path to itself). *)

val indegree : t -> Resource.id -> type_spec -> int
val outdegree : t -> Resource.id -> type_spec -> int

val reachable_from : t -> Resource.id -> Resource.id list
(** Transitive successors, excluding the start node unless on a cycle. *)

val reaching : t -> Resource.id -> Resource.id list
(** Transitive predecessors. *)

val topological_order : t -> Resource.id list
(** Deployment order: referenced resources first. Cycles are broken
    arbitrarily but deterministically. *)

val to_dot : t -> string
(** Graphviz rendering of the resource graph: one node per resource
    (labelled TYPE.name), one edge per reference (labelled with the
    inbound endpoint). *)
