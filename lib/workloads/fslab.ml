(* The one factory for every file system under evaluation: benchmarks,
   gates, campaigns, tools and tests build ZoFS and the baselines here, so
   each system is assembled the same way everywhere, and tables iterate
   over systems behind one label.

   Each call builds a fresh simulated NVM device and a freshly formatted
   file system; ZoFS additionally builds KernFS and a per-process FSLibs
   dispatcher. *)

module V = Treasury.Vfs

type system =
  | Zofs
  | Zofs_variant of Zofs.Ufs.variant * string  (* variant + label suffix *)
  | Ext4_dax
  | Pmfs
  | Pmfs_nocache
  | Nova
  | Nova_noindex
  | Novai
  | Novai_noindex
  | Strata

let label = function
  | Zofs -> "ZoFS"
  | Zofs_variant (_, l) -> l
  | Ext4_dax -> "Ext4-DAX"
  | Pmfs -> "PMFS"
  | Pmfs_nocache -> "PMFS-nocache"
  | Nova -> "NOVA"
  | Nova_noindex -> "NOVA-noindex"
  | Novai -> "NOVAi"
  | Novai_noindex -> "NOVAi-noindex"
  | Strata -> "Strata"

type instance = {
  fs : V.fs;
  sys : system;
  (* ZoFS internals, exposed for coffer-level benchmarks *)
  kernfs : Treasury.Kernfs.t option;
  device : Nvm.Device.t;
}

(* Build a ZoFS world: every file system under test that runs ZoFS is
   formatted here.  [nbuckets] sizes KernFS's path map. *)
let make_zofs ?(root_mode = 0o755) ?(nbuckets = 4096) ~pages ~perf () =
  let dev = Nvm.Device.create ~perf ~size:(pages * Nvm.page_size) () in
  let mpk = Mpk.create dev in
  (* No-ops unless the check gate enabled the checkers / obs is enabled;
     attaching before mkfs lets the checker see the root structures get
     registered.  Both attach as independent trace subscribers. *)
  Check.auto_attach dev mpk;
  Race.auto_attach dev mpk;
  Obs.attach_device dev;
  (* Root is 0755: its rw-permission class (0644) matches the 0644 files
     the workloads create, so they share the root coffer as the paper's
     grouping analysis predicts. *)
  let kfs =
    Treasury.Kernfs.mkfs dev mpk ~nbuckets ~root_ctype:Zofs.Ufs.ctype
      ~root_mode ~root_uid:0 ~root_gid:0 ()
  in
  Zofs.Ufs.mkfs kfs;
  (dev, kfs)

(* The one FSLib constructor: a dispatcher serving ZoFS.  FSLibs must be
   instantiated per process (it holds the FD table and the mapped-coffer
   cache), inside a sim thread of that process: fs_mount registers its pid.
   Callers that want online repair wire [Dispatcher.set_repair] themselves. *)
let zofs_dispatcher ?variant kfs =
  let disp = Treasury.Dispatcher.create kfs in
  Treasury.Dispatcher.register_ufs disp (module Zofs.Ufs)
    (Zofs.Ufs.create ?variant kfs);
  disp

let zofs_fslib ?variant kfs =
  Treasury.Dispatcher.as_vfs (zofs_dispatcher ?variant kfs)

(* The configuration of a kernel baseline built on [Baselines.Engine]. *)
let engine_config = function
  | Ext4_dax -> Baselines.Ext4_dax.config ()
  | Pmfs -> Baselines.Pmfs.config ()
  | Pmfs_nocache -> Baselines.Pmfs.config ~nocache:true ()
  | Nova -> Baselines.Nova.config ()
  | Nova_noindex -> Baselines.Nova.config ~noindex:true ()
  | Novai -> Baselines.Nova.config ~in_place:true ()
  | Novai_noindex -> Baselines.Nova.config ~in_place:true ~noindex:true ()
  | (Zofs | Zofs_variant _ | Strata) as sys ->
      invalid_arg ("Fslab.engine_config: " ^ label sys)

let make ?(pages = 65536) ?(perf = Nvm.Perf.optane) sys : instance =
  match sys with
  | Zofs | Zofs_variant _ ->
      let variant = match sys with Zofs_variant (v, _) -> Some v | _ -> None in
      let dev, kfs = make_zofs ~pages ~perf () in
      { fs = zofs_fslib ?variant kfs; sys; kernfs = Some kfs; device = dev }
  | Strata ->
      let t = Baselines.Strata.create ~pages ~perf () in
      Obs.attach_device t.Baselines.Strata.dev;
      {
        fs = V.Fs ((module Baselines.Strata), t);
        sys;
        kernfs = None;
        device = t.Baselines.Strata.dev;
      }
  | _ ->
      let t = Baselines.Engine.create (engine_config sys) ~pages ~perf in
      Obs.attach_device t.Baselines.Engine.dev;
      {
        fs = V.Fs ((module Baselines.Engine), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }

let one_coffer_variant =
  Zofs_variant
    ({ Zofs.Ufs.default_variant with Zofs.Ufs.one_coffer = true }, "ZoFS-1coffer")

let sysempty_variant =
  Zofs_variant
    ({ Zofs.Ufs.default_variant with Zofs.Ufs.sysempty = true }, "ZoFS-sysempty")

let kwrite_variant =
  Zofs_variant
    ({ Zofs.Ufs.default_variant with Zofs.Ufs.kwrite = true }, "ZoFS-kwrite")
