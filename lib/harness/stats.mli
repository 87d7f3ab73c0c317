(** Descriptive statistics for experiment samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;       (** sample standard deviation *)
  minimum : float;
  maximum : float;
  median : float;
  p95 : float;          (** 95th percentile *)
  ci95 : float;         (** half-width of a normal-approximation 95% CI on the mean *)
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on an empty list. *)

val of_ints : int list -> summary

val mean : float list -> float
val variance : float list -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val quantile : float -> float list -> float
(** [quantile q xs] for [0 ≤ q ≤ 1], linear interpolation between order
    statistics. *)

val binomial_ci95 : successes:int -> trials:int -> float * float
(** Wilson score interval for a proportion — used for agreement-
    probability estimates, which are near the 0/1 boundary where the
    normal approximation misbehaves. *)

val linear_fit : (float * float) list -> float * float * float
(** [linear_fit points] = (slope, intercept, r²) of the least-squares
    line.  Used by the scaling experiments (E3/E4) to check that
    measured work is linear in lg n or n·lg m. *)
