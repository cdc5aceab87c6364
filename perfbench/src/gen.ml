(* Seeded input generators.  Every input the benchmark hands the system
   is a pure function of the --seed argument: the same seed gives the
   same sensor values, CSV records and graph, so the oracles can
   regenerate any slice and a run can be repeated exactly. *)

(* Random access into the seeded stream: [Hashtbl.hash] is a fixed,
   platform-independent mix, so a value depends only on its key. *)
let draw ~seed key = Hashtbl.hash (seed, key)

let shuffle ~seed a =
  let st = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* -- serve-stream: sensor ticks ---------------------------------------- *)

(* Reading value of [sensor] at tick [t] in [session]'s stream, 0..99;
   the program raises an Alarm at >= 90, so about one reading in ten
   produces an output line. *)
let reading_value ~seed ~session ~t ~sensor =
  draw ~seed (session, t, sensor) mod 100

(* -- pvwatts: hourly CSV records ---------------------------------------- *)

type record = { site : int; month : int; day : int; hour : int; power : int }

(* A daylight bell with seasonal amplitude and seeded noise, in the
   shape of [Jstar_csv.Pvwatts_data.power]. *)
let power ~seed ~site ~month ~day ~hour =
  if hour < 6 || hour > 19 then 0
  else
    let daylight = sin (Float.pi *. float_of_int (hour - 6) /. 13.0) in
    let season =
      0.6 +. (0.4 *. sin (Float.pi *. float_of_int (month - 1) /. 11.0))
    in
    let noise =
      0.8 +. (0.4 *. float_of_int (draw ~seed (site, month, day, hour) land 1023)
              /. 1023.0)
    in
    int_of_float (4000.0 *. daylight *. season *. noise)

(* One year of hourly records per installation, in a seeded order. *)
let pvwatts_records ~seed ~installations =
  let days = Jstar_csv.Pvwatts_data.days_in_month in
  let acc = ref [] in
  for site = 0 to installations - 1 do
    for month = 1 to 12 do
      for day = 1 to days.(month - 1) do
        for hour = 0 to 23 do
          acc :=
            { site; month; day; hour; power = power ~seed ~site ~month ~day ~hour }
            :: !acc
        done
      done
    done
  done;
  let a = Array.of_list !acc in
  shuffle ~seed a;
  a

let csv_bytes records =
  let b = Buffer.create (Array.length records * 24) in
  Array.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d\n" Jstar_csv.Pvwatts_data.year
           r.month r.day r.hour r.site r.power))
    records;
  Buffer.to_bytes b

(* Exact monthly means straight from the records: (month, mean). *)
let monthly_means records =
  let count = Array.make 13 0 and sum = Array.make 13 0 in
  Array.iter
    (fun r ->
      count.(r.month) <- count.(r.month) + 1;
      sum.(r.month) <- sum.(r.month) + r.power)
    records;
  List.init 12 (fun i ->
      let m = i + 1 in
      (m, float_of_int sum.(m) /. float_of_int count.(m)))

(* -- closure: layered-cluster graphs ------------------------------------ *)

(* [clusters] disjoint clusters of [layers] layers of [width] nodes,
   complete bipartite edges between adjacent layers (the
   bench/joins.ml shape).  Node ids are a seeded permutation and the
   edge order is seeded, so the engine sees different hash and arrival
   orders per seed over the same closure. *)
let layered_graph ~seed ~clusters ~layers ~width =
  let n = clusters * layers * width in
  let ids = Array.init n Fun.id in
  shuffle ~seed:(seed + 1) ids;
  let node cl l s = ids.((((cl * layers) + l) * width) + s) in
  let edges = ref [] in
  for cl = 0 to clusters - 1 do
    for l = 0 to layers - 2 do
      for a = 0 to width - 1 do
        for b = 0 to width - 1 do
          edges := (node cl l a, node cl (l + 1) b) :: !edges
        done
      done
    done
  done;
  let edges = Array.of_list !edges in
  shuffle ~seed edges;
  edges

(* Every node reaches every node of every later layer of its cluster:
   width^2 paths per ordered layer pair, layers*(layers-1)/2 pairs. *)
let closure_size ~clusters ~layers ~width =
  clusters * width * width * (layers * (layers - 1) / 2)
