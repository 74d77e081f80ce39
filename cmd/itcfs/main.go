// Command itcfs is an interactive client for a Vice server (cmd/itcfsd): a
// complete Virtue workstation — local file system, Venus whole-file cache,
// shared name space under /vice — driven from a small shell.
//
//	itcfs -addr localhost:7001 -user operator -password secret
//
// Type "help" at the prompt for commands.
//
// What is left in this file is the flags, the dial and the command table.
// The workstation is virtue.NewWorkstation reaching the server through
// venus.PeerConnector, which dials a fresh connection whenever Venus needs
// one; the operator's commands (adduser, volstat, salvage) are itcfs.Admin
// over one connection of its own — the same two pieces a simulated cell's
// workstations and Cell.Admin are made of.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"

	"itcfs"
	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its arguments and streams explicit, so the scripted
// session test can drive the shell in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("itcfs", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", "localhost:7001", "server address")
	user := flags.String("user", "", "user name (required)")
	password := flags.String("password", "", "password (required)")
	serverName := flags.String("server", "server0", "server name (must match itcfsd -name)")
	var mode vice.Mode
	flags.TextVar(&mode, "mode", vice.Revised, "client mode: prototype or revised")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *user == "" || *password == "" {
		fmt.Fprintln(stderr, "itcfs: -user and -password are required")
		return 2
	}

	// Every connection the shell opens, closed when it exits.
	var streams []net.Conn
	defer func() {
		for _, nc := range streams {
			nc.Close()
		}
	}()
	dial := func(server string) (io.ReadWriteCloser, error) {
		if server != *serverName {
			return nil, fmt.Errorf("unknown server %q (single-server client)", server)
		}
		nc, err := net.Dial("tcp", *addr)
		if err == nil {
			streams = append(streams, nc)
		}
		return nc, err
	}
	key := secure.DeriveKey(*user, *password)
	// The operator's console is a connection of its own, as in the simulator:
	// what it changes reaches this workstation's cache the way anyone's
	// change does, as a callback break. It is dialed now, so that a bad
	// password fails before the prompt, and it is never redialed.
	console, err := venus.PeerConnector(dial, *user, key, nil)(nil, *serverName)
	if err != nil {
		fmt.Fprintf(stderr, "itcfs: %v\n", err)
		return 1
	}

	// The callback service: the server breaks our cached copies through it.
	cbServer := rpc.NewServer()
	local := unixfs.New(nil)
	fs := virtue.NewWorkstation(venus.Config{
		Mode:       mode,
		Machine:    "itcfs-cli",
		Local:      local,
		HomeServer: *serverName,
		// Venus dials on first use and again after the server drops the
		// connection; a command that meets the drop redials once.
		Connect:          venus.PeerConnector(dial, *user, key, cbServer),
		ReconnectRetries: 1,
	}, cbServer)
	fs.Venus().Login(*user)
	local.MkdirAll("/tmp", 0o777, *user)

	fmt.Fprintf(stdout, "connected to %s as %s (%s mode); shared space under /vice\n", *addr, *user, mode)
	sh := &shell{fs: fs, v: fs.Venus(), admin: itcfs.NewAdmin(console, *serverName), out: stdout}
	scanner := bufio.NewScanner(stdin)
	fmt.Fprint(stdout, "itcfs> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line != "" {
			if line == "quit" || line == "exit" {
				break
			}
			if err := sh.exec(line); err != nil {
				fmt.Fprintf(stdout, "error: %v\n", err)
			}
		}
		fmt.Fprint(stdout, "itcfs> ")
	}
	return 0
}

type shell struct {
	fs    *virtue.FS
	v     *venus.Venus
	admin *itcfs.Admin
	out   io.Writer
}

func (sh *shell) exec(line string) error {
	args := strings.Fields(line)
	cmd, rest := args[0], args[1:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("%s: missing arguments (try help)", cmd)
		}
		return nil
	}
	switch cmd {
	case "help":
		fmt.Fprint(sh.out, `commands:
  ls PATH                 list a directory
  cat PATH                print a file
  write PATH TEXT...      write text to a file
  get VICEPATH HOSTFILE   copy from the file system to the host OS
  put HOSTFILE VICEPATH   copy a host OS file in
  stat PATH               file status
  mkdir / rm / rmdir / mv paths
  ln -s TARGET PATH       symbolic link
  chmod MODE PATH         octal protection bits
  lock PATH [-x] / unlock PATH
  acl PATH                show a directory's access list
  grant PATH NAME RIGHTS  rights like rliwdka, "all", "none"
  deny PATH NAME RIGHTS   negative rights (rapid revocation)
  stats                   Venus cache statistics
  adduser NAME PASSWORD   (operator) create a user + home volume
  volstat ID              volume status
  salvage [ID]            (operator) crash-recover volumes (0 or none = all)
  quit
`)
		return nil
	case "ls":
		path := "/vice"
		if len(rest) > 0 {
			path = rest[0]
		}
		entries, err := sh.fs.ReadDir(nil, path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			suffix := ""
			if e.IsDir {
				suffix = "/"
			}
			fmt.Fprintln(sh.out, e.Name+suffix)
		}
		return nil
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := sh.fs.ReadFile(nil, rest[0])
		if err != nil {
			return err
		}
		sh.out.Write(data)
		if len(data) > 0 && data[len(data)-1] != '\n' {
			fmt.Fprintln(sh.out)
		}
		return nil
	case "write":
		if err := need(2); err != nil {
			return err
		}
		return sh.fs.WriteFile(nil, rest[0], []byte(strings.Join(rest[1:], " ")+"\n"))
	case "get":
		if err := need(2); err != nil {
			return err
		}
		data, err := sh.fs.ReadFile(nil, rest[0])
		if err != nil {
			return err
		}
		return os.WriteFile(rest[1], data, 0o644)
	case "put":
		if err := need(2); err != nil {
			return err
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		return sh.fs.WriteFile(nil, rest[1], data)
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		st, err := sh.fs.Stat(nil, rest[0])
		if err != nil {
			return err
		}
		space := "local"
		if st.Shared {
			space = "vice"
		}
		fmt.Fprintf(sh.out, "%s: %d bytes, mode %04o, owner %s, version %d (%s)\n",
			st.Name, st.Size, st.Mode, st.Owner, st.Version, space)
		return nil
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return sh.fs.Mkdir(nil, rest[0], 0o755)
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return sh.fs.Remove(nil, rest[0])
	case "rmdir":
		if err := need(1); err != nil {
			return err
		}
		return sh.fs.RemoveDir(nil, rest[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return sh.fs.Rename(nil, rest[0], rest[1])
	case "ln":
		if len(rest) == 3 && rest[0] == "-s" {
			return sh.fs.Symlink(nil, rest[1], rest[2])
		}
		return fmt.Errorf("usage: ln -s TARGET PATH")
	case "chmod":
		if err := need(2); err != nil {
			return err
		}
		var mode uint16
		if _, err := fmt.Sscanf(rest[0], "%o", &mode); err != nil {
			return fmt.Errorf("bad mode %q", rest[0])
		}
		return sh.fs.Chmod(nil, rest[1], mode)
	case "lock":
		if err := need(1); err != nil {
			return err
		}
		exclusive := len(rest) > 1 && rest[1] == "-x"
		return sh.v.Lock(nil, strings.TrimPrefix(rest[0], "/vice"), exclusive)
	case "unlock":
		if err := need(1); err != nil {
			return err
		}
		return sh.v.Unlock(nil, strings.TrimPrefix(rest[0], "/vice"))
	case "acl":
		if err := need(1); err != nil {
			return err
		}
		raw, err := sh.v.GetACL(nil, strings.TrimPrefix(rest[0], "/vice"))
		if err != nil {
			return err
		}
		acl, err := proto.ACLDecode(raw)
		if err != nil {
			return err
		}
		printSide := func(label string, m map[string]prot.Right) {
			names := make([]string, 0, len(m))
			for n := range m {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(sh.out, "  %s %-24s %s\n", label, n, m[n])
			}
		}
		printSide("+", acl.Positive)
		printSide("-", acl.Negative)
		return nil
	case "grant", "deny":
		if err := need(3); err != nil {
			return err
		}
		dir := strings.TrimPrefix(rest[0], "/vice")
		rights, err := prot.ParseRights(rest[2])
		if err != nil {
			return err
		}
		raw, err := sh.v.GetACL(nil, dir)
		if err != nil {
			return err
		}
		acl, err := proto.ACLDecode(raw)
		if err != nil {
			return err
		}
		if cmd == "grant" {
			acl.Grant(rest[1], rights)
		} else {
			acl.Deny(rest[1], rights)
		}
		return sh.v.SetACL(nil, dir, proto.ACLEncode(acl))
	case "stats":
		st := sh.v.Stats()
		fmt.Fprintf(sh.out, "opens %d  hits %d (%.1f%%)  fetches %d  stores %d  validations %d  breaks %d\n",
			st.Opens, st.Hits, 100*st.HitRatio(), st.Fetches, st.Stores, st.Validations, st.CallbackBreaks)
		files, bytes := sh.v.CacheUsage()
		fmt.Fprintf(sh.out, "cache: %d entries, %d bytes\n", files, bytes)
		return nil
	case "adduser":
		if err := need(2); err != nil {
			return err
		}
		if err := sh.admin.NewUser(nil, rest[0], rest[1], 0); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "created user %s with home /vice/usr/%s\n", rest[0], rest[0])
		return nil
	case "salvage":
		var id uint32
		if len(rest) > 0 {
			if _, err := fmt.Sscanf(rest[0], "%d", &id); err != nil {
				return fmt.Errorf("bad volume id %q", rest[0])
			}
		}
		rep, err := sh.admin.Salvage(nil, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "salvage: %d orphans removed, %d dangling entries dropped, %d link counts fixed\n",
			rep.Orphans, rep.Dangling, rep.Links)
		return nil
	case "volstat":
		if err := need(1); err != nil {
			return err
		}
		var id uint32
		if _, err := fmt.Sscanf(rest[0], "%d", &id); err != nil {
			return fmt.Errorf("bad volume id %q", rest[0])
		}
		vs, err := sh.admin.VolumeStatus(nil, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "volume %d %q on %s: %d/%d bytes, online=%v readonly=%v\n",
			vs.Volume, vs.Name, vs.Server, vs.Used, vs.Quota, vs.Online, vs.ReadOnly)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}
